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
// State/candidateSet snapshot — which is frozen, because every elimination
// is recorded into a per-partition delta buffer instead of being applied —
// and a barrier merge applies all deltas before the next round begins.
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

// partDelta buffers one partition's eliminations during a superstep, plus
// its metrics and cancellation probe. Buffers are reused across rounds.
type partDelta struct {
	cc      *CancelCheck
	omega   []omegaDelta
	verts   []graph.VertexID
	slots   []int // directed adjacency slots to clear
	m       Metrics
	changed bool
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
}

func newSuperstep(pool *Pool, s *State, omega candidateSet, cc *CancelCheck) *superstep {
	w := pool.Workers()
	if w < 1 {
		w = 1
	}
	ss := &superstep{pool: pool, s: s, omega: omega, cc: cc}
	ss.parts = make([]*partDelta, w)
	for i := range ss.parts {
		ss.parts[i] = &partDelta{cc: cc.Fork()}
	}
	ss.bounds = partitionBounds(s.g, w)
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

// run executes one superstep: fn scans vertex range [lo, hi) against the
// frozen round-start state and records eliminations into d. The call
// returns after every partition has finished (the barrier).
func (ss *superstep) run(fn func(d *partDelta, lo, hi int)) {
	ss.pool.run(len(ss.parts), func(part int) {
		d := ss.parts[part]
		d.omega = d.omega[:0]
		d.verts = d.verts[:0]
		d.slots = d.slots[:0]
		d.changed = false
		fn(d, ss.bounds[part], ss.bounds[part+1])
	})
}

// merge applies the recorded deltas on the caller goroutine, in partition
// order, and folds each partition's metrics into m. Partition order and
// per-partition scan order are both fixed, and bit clears are idempotent
// and commutative, so the merged state and counters are deterministic. It
// reports whether any partition eliminated anything.
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
		for _, od := range d.omega {
			ss.omega[od.v] &^= od.mask
		}
		for _, v := range d.verts {
			ss.s.DeactivateVertex(v)
		}
		for _, sl := range d.slots {
			ss.s.edges.Clear(sl)
		}
		changed = changed || d.changed
	}
	return changed
}

// deferEdgeAt records both directed slots of the undirected edge (v, i-th
// neighbor) for clearing at the barrier — the deferred analogue of
// State.DeactivateEdgeAt.
func (d *partDelta) deferEdgeAt(s *State, v graph.VertexID, i int) {
	u := s.g.Neighbors(v)[i]
	d.slots = append(d.slots, s.slot(v, i))
	if j := s.g.EdgeIndex(u, v); j >= 0 {
		d.slots = append(d.slots, s.slot(u, j))
	}
}

// maxCandidateSetPar is the superstep schedule of maxCandidateSet.
func maxCandidateSetPar(g *graph.Graph, t *pattern.Template, restrict *bitvec.Vector, pool *Pool, cc *CancelCheck, m *Metrics) *State {
	s := seedState(g, restrict)
	p := newCandsetPrep(t)
	omega := make(candidateSet, g.NumVertices())
	ss := newSuperstep(pool, s, omega, cc)

	// Init superstep: label filter. Each partition owns its vertex range,
	// so ω writes go straight in; deactivations are deferred. Vertices
	// outside a restriction mask start inactive and keep ω = 0.
	ss.run(func(d *partDelta, lo, hi int) {
		s.forEachActiveVertexIn(lo, hi, func(v graph.VertexID) {
			bits := p.labelBits[g.Label(v)] | p.wildBits
			omega[v] = bits
			if bits == 0 {
				d.verts = append(d.verts, v)
			}
		})
	})
	ss.merge(m)

	// Edge-filter superstep: label pairs and edge labels (both sides of an
	// edge may record the same slots; clears are idempotent).
	ss.run(func(d *partDelta, lo, hi int) {
		s.forEachActiveVertexIn(lo, hi, func(v graph.VertexID) {
			ns := g.Neighbors(v)
			base := int(g.AdjOffset(v))
			lv := g.Label(v)
			for i := range ns {
				if !s.edges.Get(base + i) {
					continue
				}
				if !p.pairs.Matches(lv, g.Label(ns[i])) ||
					(!p.elWild && !p.elSet[g.EdgeLabelAt(v, i)]) {
					d.deferEdgeAt(s, v, i)
				}
			}
		})
	})
	ss.merge(m)

	// Fixpoint: Jacobi vertex supersteps until no candidate is eliminated.
	for {
		ss.run(func(d *partDelta, lo, hi int) {
			s.forEachActiveVertexIn(lo, hi, func(v graph.VertexID) {
				d.cc.Tick()
				d.m.CandidateMessages += int64(s.ActiveDegree(v))
				// ω is frozen during the superstep, so the round-start
				// neighbor union serves every q (same values the sequential
				// schedule reads, since a vertex never borders itself).
				var nbrUnion uint64
				s.ForEachActiveNeighbor(v, func(_ int, w graph.VertexID) {
					nbrUnion |= omega[w]
				})
				var rm uint64
				for q := 0; q < t.NumVertices(); q++ {
					if omega.has(v, q) && !candidateViable(s, omega, p.prof, v, q, p.single, nbrUnion) {
						rm |= 1 << uint(q)
					}
				}
				if rm != 0 {
					d.omega = append(d.omega, omegaDelta{v, rm})
					d.changed = true
					if omega[v]&^rm == 0 {
						d.verts = append(d.verts, v)
					}
				}
			})
		})
		if !ss.merge(m) {
			return s
		}
	}
}

// lccPar is the superstep schedule of lcc: per iteration, a vertex
// superstep and an edge superstep, each followed by a barrier merge —
// mirroring the sequential phase structure of Alg. 4.
func lccPar(s *State, omega candidateSet, prof *localProfile, pool *Pool, cc *CancelCheck, m *Metrics) bool {
	t := prof.Template()
	ss := newSuperstep(pool, s, omega, cc)
	eliminatedAny := false
	for {
		m.LCCIterations++
		ss.run(func(d *partDelta, lo, hi int) {
			s.forEachActiveVertexIn(lo, hi, func(v graph.VertexID) {
				d.cc.Tick()
				d.m.LCCMessages += int64(s.ActiveDegree(v))
				var rm uint64
				for q := 0; q < t.NumVertices(); q++ {
					if omega.has(v, q) && !vertexSatisfiesLocal(s, omega, prof, v, q) {
						rm |= 1 << uint(q)
					}
				}
				if rm != 0 {
					d.omega = append(d.omega, omegaDelta{v, rm})
					d.changed = true
					if omega[v]&^rm == 0 {
						d.verts = append(d.verts, v)
					}
				}
			})
		})
		changed := ss.merge(m)
		ss.run(func(d *partDelta, lo, hi int) {
			s.forEachActiveVertexIn(lo, hi, func(v graph.VertexID) {
				d.cc.Tick()
				ns := s.g.Neighbors(v)
				base := int(s.g.AdjOffset(v))
				for i, u := range ns {
					if !s.edges.Get(base+i) || !s.verts.Get(int(u)) {
						continue
					}
					d.m.LCCMessages++
					if !edgeSupported(omega, prof, v, u) {
						d.deferEdgeAt(s, v, i)
						d.changed = true
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
			d.omega = append(d.omega, omegaDelta{v, 1 << uint(q0)})
			d.changed = true
			if omega[v]&^(1<<uint(q0)) == 0 {
				d.verts = append(d.verts, v)
			}
		})
	})
	return ss.merge(m)
}
