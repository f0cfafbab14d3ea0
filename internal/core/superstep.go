package core

import (
	"sort"

	"approxmatch/internal/bitvec"
	"approxmatch/internal/constraint"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
)

// This file implements the parallel (Jacobi-style) schedule of the
// constraint-checking kernels. Each fixpoint round becomes a superstep with
// BSP semantics: workers scan disjoint vertex partitions of the round-start
// State/candidateSet snapshot, and a barrier merge publishes the round's
// eliminations before the next round begins. What other partitions read
// during a round — ω and the vertex bits — stays frozen: those eliminations
// are recorded into a per-partition delta and applied at the barrier. What
// only its owner reads — a vertex's own out-slots — is written during the
// round by the owning partition, through a bitvec.Span, which holds back just
// the two words a partition's slot range can share with its neighbours.
//
// Eliminations are monotone (bits only ever go from set to clear) and every
// per-vertex verdict is computed from the snapshot, so the parallel
// schedule performs chaotic iteration of the same monotone operator as the
// sequential Gauss-Seidel loops and converges to the same greatest
// fixpoint. Intermediate trajectories differ — the sequential loops see
// same-round eliminations early — but the exact verification phase (and,
// for locally-sufficient templates, the final LCC fixpoint itself) makes
// `Rho`/`Solutions` bit-identical regardless of schedule. Counters are
// deterministic for any fixed worker count, and identical across all
// parallel worker counts N >= 1, because each vertex's per-round work
// depends only on the round-start snapshot, not on the partitioning.

// omegaDelta records candidate-mask bits to remove from ω(v) at the next
// barrier.
type omegaDelta struct {
	v    graph.VertexID
	mask uint64
}

// partDelta is one partition's side of a superstep: the ω eliminations it
// recorded, its gather scratch (State.gatherOmega), its writers for the vertex
// bits and out-slots it owns, its metrics and its cancellation probe. Reused
// across rounds, and — the two buffers — across the kernel calls of a run: the
// first LCC round of a prototype search eliminates a candidate at most
// vertices, so a list regrown from nil per call is most of what the superstep
// schedule allocates (see Pool.partBuffers).
type partDelta struct {
	cc           *CancelCheck
	omega        []omegaDelta
	nbr          []uint64
	verts, edges bitvec.Span
	m            Metrics
	changed      bool
}

// superstep coordinates the parallel rounds of one kernel call: fixed
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
	ss.parts = pool.partBuffers(w)
	slotAt := func(v int) int {
		if v == s.g.NumVertices() {
			return s.g.NumDirectedEdges()
		}
		return int(s.g.AdjOffset(graph.VertexID(v)))
	}
	for i := range ss.parts {
		lo, hi := ss.bounds[i], ss.bounds[i+1]
		d := ss.parts[i]
		d.cc, d.m = cc.Fork(), Metrics{} // a recycled buffer may come from an aborted call
		d.verts = s.verts.Span(lo, hi)
		d.edges = s.edges.Span(slotAt(lo), slotAt(hi))
	}
	return ss
}

// release hands the partitions' buffers back to the pool for the run's next
// kernel call. The superstep must not be used afterwards.
func (ss *superstep) release() {
	ss.pool.recycle(ss.parts)
	ss.parts = nil
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
				// round-start values, the same ones the sequential schedule
				// reads for v (a vertex never borders itself).
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

// lccPar is the superstep schedule of lcc: per iteration, a vertex
// superstep and an edge superstep, each followed by a barrier merge —
// mirroring the sequential phase structure of Alg. 4.
func lccPar(s *State, omega candidateSet, prof *localProfile, pool *Pool, cc *CancelCheck, m *Metrics) bool {
	ss := newSuperstep(pool, s, omega, cc)
	defer ss.release()
	eliminatedAny := false
	for {
		m.LCCIterations++
		ss.run(func(d *partDelta, lo, hi int) {
			s.forEachActiveVertexIn(lo, hi, func(v graph.VertexID) {
				d.cc.Tick()
				d.nbr = s.gatherOmega(omega, v, d.nbr)
				d.m.LCCMessages += int64(len(d.nbr))
				d.eliminate(v, unsatisfiedLocal(prof, omega[v], d.nbr))
			})
		})
		changed := ss.merge(m)
		ss.run(func(d *partDelta, lo, hi int) {
			s.forEachActiveVertexIn(lo, hi, func(v graph.VertexID) {
				d.cc.Tick()
				need := supportMask(prof, omega[v])
				ns, base, ws := s.slotScan(v)
				for ws.Next() {
					for w := ws.Word; w != 0; w &= w - 1 {
						slot := ws.Base + trailingZeros(w)
						u := ns[slot-base]
						if !s.verts.Get(int(u)) {
							d.edges.Clear(slot) // left dangling by dropVertex(u)
							continue
						}
						d.m.LCCMessages++
						// ω is frozen, so u's partition refutes the reverse
						// slot in this same superstep.
						if omega[u]&need == 0 {
							d.edges.Clear(slot)
							d.changed = true
						}
					}
				}
			})
		})
		if ss.merge(m) {
			changed = true
		}
		if !changed {
			return eliminatedAny
		}
		eliminatedAny = true
	}
}

// nlccPar is the superstep schedule of the nlcc initiator scan: the walks
// themselves stay per-vertex and read only the frozen snapshot; the shared
// work-recycling Cache is already safe for concurrent use, and its keys are
// per (constraint, initiator vertex), so in-scan records never influence
// another initiator's verdict.
func nlccPar(s *State, omega candidateSet, t *pattern.Template, w *constraint.Walk, cache *Cache, pool *Pool, cc *CancelCheck, m *Metrics) bool {
	q0 := w.Seq[0]
	ss := newSuperstep(pool, s, omega, cc)
	defer ss.release()
	ss.run(func(d *partDelta, lo, hi int) {
		s.forEachActiveVertexIn(lo, hi, func(v graph.VertexID) {
			d.cc.Tick()
			if !omega.has(v, q0) {
				return
			}
			if cache != nil && cache.Satisfied(w.ID, s.origID(v)) {
				d.m.CacheHits++
				return
			}
			d.m.TokensInitiated++
			if walkFrom(s, omega, t, w, v, d.cc, &d.m) {
				if cache != nil {
					cache.Record(w.ID, s.origID(v))
				}
				return
			}
			d.eliminate(v, 1<<uint(q0))
		})
	})
	changed := ss.merge(m)
	if ss.dropped {
		s.clearDanglingSlots()
	}
	return changed
}
