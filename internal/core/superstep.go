package core

import (
	"sort"

	"approxmatch/internal/bitvec"
	"approxmatch/internal/graph"
)

// This file implements the superstep (Jacobi-style) schedule of the
// maximum-candidate-set computation: its O(m) seed and its viability
// fixpoint. Each fixpoint round is a superstep with BSP semantics: workers
// scan disjoint vertex partitions of the round-start State/candidateSet
// snapshot, and a barrier merge publishes the round's eliminations before the
// next round begins. What other partitions read during a round — ω and the
// vertex bits — stays frozen: those eliminations are recorded into a
// per-partition delta and applied at the barrier. What only its owner reads —
// a vertex's own out-slots — is written during the round by the owning
// partition, through a bitvec.Span, which holds back just the two words a
// partition's slot range can share with its neighbours.
//
// Eliminations are monotone (bits only ever go from set to clear) and every
// per-vertex verdict is computed from the round-start snapshot, so the rounds
// reach the same greatest fixpoint as any other schedule, and the counters
// do not depend on the worker count: each vertex's per-round work
// depends only on the snapshot, not on the partitioning. The per-prototype
// kernels (lcc, nlcc) stay Gauss-Seidel; a run takes their parallelism from
// the concurrent prototype searches of a level.

// omegaDelta records candidate-mask bits to remove from ω(v) at the next
// barrier.
type omegaDelta struct {
	v    graph.VertexID
	mask uint64
}

// partDelta is one partition's side of a superstep: the ω eliminations it
// recorded, its gather scratch (State.gatherOmega), its writers for the vertex
// bits and out-slots it owns, its metrics and its cancellation probe. Reused
// across the rounds of one computation.
type partDelta struct {
	cc           *CancelCheck
	omega        []omegaDelta
	nbr          []uint64
	verts, edges bitvec.Span
	m            Metrics
	changed      bool
}

// superstep coordinates the parallel rounds of one M* computation: fixed
// vertex partitions (edge-balanced by CSR offset), one delta buffer and one
// forked cancellation probe per partition.
type superstep struct {
	pool  *Pool
	s     *State
	omega candidateSet
	// cc is the coordinator's probe, polled at every barrier merge so
	// budget exhaustion is enforced at superstep granularity even when the
	// workers' forked probes are mid-batch.
	cc     *CancelCheck
	parts  []*partDelta
	bounds []int // len(parts)+1 partition boundaries over vertex IDs
	// scan is the number of vertices the next superstep visits: the State's
	// active count, refreshed at every merge.
	scan int
	// dropped records that some merge dropped a vertex, i.e. reverse slots
	// may dangle (see State.dropVertex).
	dropped bool
}

func newSuperstep(pool *Pool, s *State, omega candidateSet, cc *CancelCheck) *superstep {
	w := pool.Workers()
	if w < 1 {
		w = 1
	}
	ss := &superstep{pool: pool, s: s, omega: omega, cc: cc, scan: s.verts.Count()}
	ss.bounds = partitionBounds(s.g, w)
	ss.parts = make([]*partDelta, w)
	slotAt := func(v int) int {
		if v == s.g.NumVertices() {
			return s.g.NumDirectedEdges()
		}
		return int(s.g.AdjOffset(graph.VertexID(v)))
	}
	for i := range ss.parts {
		lo, hi := ss.bounds[i], ss.bounds[i+1]
		ss.parts[i] = &partDelta{
			cc:    cc.Fork(),
			verts: s.verts.Span(lo, hi),
			edges: s.edges.Span(slotAt(lo), slotAt(hi)),
		}
	}
	return ss
}

// partitionBounds splits the vertex ID space into parts contiguous ranges
// of roughly equal directed-slot (adjacency) volume, so skewed degree
// distributions don't serialize a superstep behind one overloaded worker.
func partitionBounds(g *graph.Graph, parts int) []int {
	n := g.NumVertices()
	total := int64(g.NumDirectedEdges())
	bounds := make([]int, parts+1)
	for i := 1; i < parts; i++ {
		target := total * int64(i) / int64(parts)
		lo := sort.Search(n, func(v int) bool { return g.AdjOffset(graph.VertexID(v)) >= target })
		if lo < bounds[i-1] {
			lo = bounds[i-1]
		}
		bounds[i] = lo
	}
	bounds[parts] = n
	return bounds
}

// minParallelScan is the number of active vertices below which a superstep
// is not worth a trip through the pool. Late fixpoint rounds scan a few
// thousand survivors in well under 100 µs, less than waking the workers and
// waiting for them costs — and that cost is the part of a query that moves
// with whatever else the host is doing. (A variable so that this package's
// tests can send every superstep through the pool.)
var minParallelScan = 1 << 14

// run executes one superstep: fn scans vertex range [lo, hi) against the
// frozen round-start state and records eliminations into d. The call
// returns after every partition has finished (the barrier). A small
// superstep runs its partitions one after another on the calling goroutine;
// partitions never read each other's writes within a round, so the merged
// state and the counters are the same either way.
func (ss *superstep) run(fn func(d *partDelta, lo, hi int)) {
	part := func(i int) {
		d := ss.parts[i]
		d.omega = d.omega[:0]
		d.changed = false
		fn(d, ss.bounds[i], ss.bounds[i+1])
	}
	if ss.scan < minParallelScan {
		for i := range ss.parts {
			part(i)
		}
		return
	}
	ss.pool.run(len(ss.parts), part)
}

// merge publishes the round on the caller goroutine, in partition order,
// and folds each partition's metrics into m: the Spans' shared edge words are
// flushed, the ω eliminations applied, and a vertex whose ω reaches zero is
// dropped. Partition order and per-partition scan order are both fixed, and
// bit clears are idempotent and commutative, so the merged state and counters
// are deterministic. It reports whether any partition eliminated anything.
//
// The barrier is also where the partitions' probes are released: their
// ticks reach the shared tracker before the coordinator polls it, so the
// charge — and the point at which a budget aborts the run — is the same for
// every worker count.
func (ss *superstep) merge(m *Metrics) bool {
	for _, d := range ss.parts {
		d.cc.Release()
	}
	ss.cc.Check()
	changed := false
	for _, d := range ss.parts {
		m.Add(&d.m)
		d.m = Metrics{}
		d.verts.Flush()
		d.edges.Flush()
		for _, od := range d.omega {
			if ss.omega[od.v] &^= od.mask; ss.omega[od.v] == 0 {
				ss.s.dropVertex(od.v)
				ss.dropped = true
			}
		}
		changed = changed || d.changed
	}
	ss.scan = ss.s.verts.Count()
	return changed
}

// eliminate records the removal of the candidates in rm from ω(v).
func (d *partDelta) eliminate(v graph.VertexID, rm uint64) {
	if rm != 0 {
		d.omega = append(d.omega, omegaDelta{v, rm})
		d.changed = true
	}
}

// candidateFixpointPar is the superstep schedule of the M* viability
// fixpoint on the seeded state of ss: Jacobi rounds until no candidate is
// eliminated. It reports whether it dropped any vertex.
func candidateFixpointPar(ss *superstep, p *candsetPrep, m *Metrics) (dropped bool) {
	s, omega := ss.s, ss.omega
	for {
		ss.run(func(d *partDelta, lo, hi int) {
			s.forEachActiveVertexIn(lo, hi, func(v graph.VertexID) {
				d.cc.Tick()
				// ω is frozen during the superstep: the gather reads the
				// round-start values (a vertex never borders itself).
				d.nbr = s.gatherOmega(omega, v, d.nbr)
				d.m.CandidateMessages += int64(len(d.nbr))
				d.eliminate(v, p.unviable(omega[v], d.nbr))
			})
		})
		if !ss.merge(m) {
			return ss.dropped
		}
	}
}
