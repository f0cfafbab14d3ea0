package dist

import (
	"math/bits"
	"sync/atomic"

	"approxmatch/internal/constraint"
	"approxmatch/internal/core"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
)

// distState is the per-vertex / per-edge search state of a distributed
// search, laid out so that every element is written only by the owning
// rank: active/omega per vertex, edgeOn per directed adjacency slot, and
// the neighbor-candidate snapshots (nbrOmega/nbrFresh) received via
// messages — the distributed stand-in for reading a remote vertex's state.
type distState struct {
	e        *Engine
	active   []bool
	omega    []uint64
	edgeOn   []bool
	nbrOmega []uint64
	nbrFresh []bool
}

func newDistState(e *Engine) *distState {
	g := e.Graph()
	return &distState{
		e:        e,
		active:   make([]bool, g.NumVertices()),
		omega:    make([]uint64, g.NumVertices()),
		edgeOn:   make([]bool, g.NumDirectedEdges()),
		nbrOmega: make([]uint64, g.NumDirectedEdges()),
		nbrFresh: make([]bool, g.NumDirectedEdges()),
	}
}

// fromCoreState seeds the distributed state from a sequential State. A
// compacted view state is expanded back to original ids: the distributed
// runtime's per-vertex arrays are sized by the engine's graph, and rank
// ownership is keyed by original vertex id.
func fromCoreState(e *Engine, cs *core.State) *distState {
	s := newDistState(e)
	if vw := cs.View(); vw != nil {
		cs.VertexBits().ForEach(func(v int) {
			s.active[vw.OrigVertex(graph.VertexID(v))] = true
		})
		cs.EdgeBits().ForEach(func(slot int) {
			s.edgeOn[vw.OrigSlot(slot)] = true
		})
		return s
	}
	cs.VertexBits().ForEach(func(v int) { s.active[v] = true })
	cs.EdgeBits().ForEach(func(slot int) { s.edgeOn[slot] = true })
	return s
}

// toCoreState converts back for the sequential finalization step.
func (s *distState) toCoreState() *core.State {
	cs := core.NewEmptyState(s.e.Graph())
	for v, a := range s.active {
		if a {
			cs.VertexBits().Set(v)
		}
	}
	for slot, on := range s.edgeOn {
		if on {
			cs.EdgeBits().Set(slot)
		}
	}
	return cs
}

// initOmega fills the candidate masks by label (wildcard-aware).
func (s *distState) initOmega(t *pattern.Template) {
	labelBits, wildBits := templateLabelBits(t)
	g := s.e.Graph()
	for v := range s.omega {
		if s.active[v] {
			s.omega[v] = labelBits[g.Label(graph.VertexID(v))] | wildBits
			if s.omega[v] == 0 {
				s.deactivate(graph.VertexID(v))
			}
		} else {
			s.omega[v] = 0
		}
	}
}

// templateLabelBits precomputes per-label candidate masks plus the wildcard
// mask.
func templateLabelBits(t *pattern.Template) (map[pattern.Label]uint64, uint64) {
	labelBits := make(map[pattern.Label]uint64)
	var wildBits uint64
	for q := 0; q < t.NumVertices(); q++ {
		if t.Label(q) == pattern.Wildcard {
			wildBits |= 1 << uint(q)
		} else {
			labelBits[t.Label(q)] |= 1 << uint(q)
		}
	}
	return labelBits, wildBits
}

// deactivate kills a vertex and its outgoing slots (owner-rank operation).
func (s *distState) deactivate(v graph.VertexID) {
	s.active[v] = false
	g := s.e.Graph()
	base := int(g.AdjOffset(v))
	for i := range g.Neighbors(v) {
		s.edgeOn[base+i] = false
	}
}

// nbrInfo is the LCC broadcast payload: the sender's id and candidate mask.
type nbrInfo struct {
	from  graph.VertexID
	omega uint64
}

// exchangeNeighborState is one LCC communication superstep: every active
// vertex broadcasts its candidate mask over its active edges; receivers
// record the snapshot on the corresponding slot.
func (s *distState) exchangeNeighborState(phase string) {
	g := s.e.Graph()
	for i := range s.nbrFresh {
		s.nbrFresh[i] = false
	}
	s.e.Traverse(phase,
		func(seed func(graph.VertexID, any)) {
			for v := range s.active {
				if s.active[v] {
					seed(graph.VertexID(v), startBroadcast{})
				}
			}
		},
		func(ctx *Ctx, target graph.VertexID, data any) {
			switch d := data.(type) {
			case startBroadcast:
				if !s.active[target] {
					return
				}
				base := int(g.AdjOffset(target))
				ctx.SendToNeighbors(target,
					func(i int, w graph.VertexID) bool { return s.edgeOn[base+i] },
					func(i int, w graph.VertexID) any {
						return nbrInfo{from: target, omega: s.omega[target]}
					})
			case nbrInfo:
				if !s.active[target] {
					return
				}
				if i := g.EdgeIndex(target, d.from); i >= 0 {
					slot := int(g.AdjOffset(target)) + i
					s.nbrOmega[slot] = d.omega
					s.nbrFresh[slot] = true
				}
			}
		})
}

// startBroadcast is the do_traversal seed marker.
type startBroadcast struct{}

// localRequirement abstracts what a candidate (v, q) must see in its
// neighborhood: the full LCC requirement for prototype search, or the
// weakened max-candidate-set requirement.
type localRequirement interface {
	satisfied(s *distState, v graph.VertexID, q int) bool
}

// lccRequirement is the per-prototype local constraint.
type lccRequirement struct{ prof *constraint.LocalProfile }

func (r lccRequirement) satisfied(s *distState, v graph.VertexID, q int) bool {
	g := s.e.Graph()
	base := int(g.AdjOffset(v))
	for _, grp := range r.prof.Groups(q) {
		found := 0
		for i := range g.Neighbors(v) {
			slot := base + i
			if s.edgeOn[slot] && s.nbrFresh[slot] && s.nbrOmega[slot]&grp.Mask != 0 {
				found++
				if found >= grp.Count {
					break
				}
			}
		}
		if found < grp.Count {
			return false
		}
	}
	return true
}

// mcsRequirement is the max-candidate-set viability check.
type mcsRequirement struct {
	prof   *constraint.MandatoryProfile
	single bool
}

func (r mcsRequirement) satisfied(s *distState, v graph.VertexID, q int) bool {
	if r.single {
		return true
	}
	g := s.e.Graph()
	base := int(g.AdjOffset(v))
	any := false
	for i := range g.Neighbors(v) {
		slot := base + i
		if s.edgeOn[slot] && s.nbrFresh[slot] && s.nbrOmega[slot]&r.prof.AllNbr(q) != 0 {
			any = true
			break
		}
	}
	if !any {
		return false
	}
	for _, grp := range r.prof.Mandatory(q) {
		found := 0
		for i := range g.Neighbors(v) {
			slot := base + i
			if s.edgeOn[slot] && s.nbrFresh[slot] && s.nbrOmega[slot]&grp.Mask != 0 {
				found++
				if found >= grp.Count {
					break
				}
			}
		}
		if found < grp.Count {
			return false
		}
	}
	return true
}

// fixpoint alternates communication supersteps with rank-local
// re-evaluation until no rank changes anything — Alg. 4 in BSP-over-async
// form. nbrMask gives the template adjacency for edge support checks (nil
// disables edge-support elimination, as in the candidate-set phase, which
// only drops edges to dead neighbors).
func (s *distState) fixpoint(phase string, t *pattern.Template, req localRequirement, edgeSupport bool) {
	g := s.e.Graph()
	prof := constraint.BuildLocalProfile(t)
	for {
		s.exchangeNeighborState(phase)
		var changed atomic.Bool
		s.e.ParallelRanks(func(rank int) {
			for v := 0; v < g.NumVertices(); v++ {
				if int(s.e.owner[v]) != rank || !s.active[v] {
					continue
				}
				vid := graph.VertexID(v)
				for q := 0; q < t.NumVertices(); q++ {
					if s.omega[v]&(1<<uint(q)) == 0 {
						continue
					}
					if !req.satisfied(s, vid, q) {
						s.omega[v] &^= 1 << uint(q)
						changed.Store(true)
					}
				}
				if s.omega[v] == 0 {
					s.deactivate(vid)
					changed.Store(true)
					continue
				}
				// Edge elimination: drop slots to stale (dead) neighbors,
				// and — for full LCC — slots without candidate support.
				base := int(g.AdjOffset(vid))
				for i := range g.Neighbors(vid) {
					slot := base + i
					if !s.edgeOn[slot] {
						continue
					}
					if !s.nbrFresh[slot] {
						s.edgeOn[slot] = false
						changed.Store(true)
						continue
					}
					if edgeSupport && !s.edgeSupported(vid, slot, prof) {
						s.edgeOn[slot] = false
						changed.Store(true)
					}
				}
			}
		})
		if !changed.Load() {
			return
		}
	}
}

// edgeSupported checks candidate support of a slot using the neighbor
// snapshot.
func (s *distState) edgeSupported(v graph.VertexID, slot int, prof *constraint.LocalProfile) bool {
	ov := s.omega[v]
	for ov != 0 {
		q := bits.TrailingZeros64(ov)
		ov &= ov - 1
		if s.nbrOmega[slot]&prof.NbrMask(q) != 0 {
			return true
		}
	}
	return false
}

// MaxCandidateSetDist computes M* with the distributed engine.
func MaxCandidateSetDist(e *Engine, t *pattern.Template) *distState {
	s := newDistState(e)
	g := e.Graph()
	pairs := t.EdgePairSet()
	labelBits, wildBits := templateLabelBits(t)
	// Label filtering and label-pair edge filtering are rank-local.
	e.ParallelRanks(func(rank int) {
		for v := 0; v < g.NumVertices(); v++ {
			if int(e.owner[v]) != rank {
				continue
			}
			vid := graph.VertexID(v)
			s.omega[v] = labelBits[g.Label(vid)] | wildBits
			s.active[v] = s.omega[v] != 0
			if !s.active[v] {
				continue
			}
			base := int(g.AdjOffset(vid))
			lv := g.Label(vid)
			for i, u := range g.Neighbors(vid) {
				s.edgeOn[base+i] = pairs.Matches(lv, g.Label(u))
			}
		}
	})
	s.fixpoint("candidate", t, mcsRequirement{
		prof:   constraint.BuildMandatoryProfile(t),
		single: t.NumVertices() == 1,
	}, false)
	return s
}

// lccDist runs the per-prototype local constraint fixpoint.
func (s *distState) lccDist(t *pattern.Template) {
	s.fixpoint("lcc", t, lccRequirement{prof: constraint.BuildLocalProfile(t)}, true)
}

// token is the NLCC walk payload: path realizes w.Seq[0:len(path)], and the
// token is addressed to the vertex proposed to realize w.Seq[len(path)].
type token struct {
	t    *pattern.Template
	w    *constraint.Walk
	path []graph.VertexID
}

// ack reports walk completion back to the initiator.
type ack struct{ w *constraint.Walk }

// nlccDist validates one walk by distributed token passing (Alg. 5):
// every candidate initiator broadcasts tokens; receivers validate
// label/candidate/consistency conditions, extend and forward; tokens
// reaching the end of the sequence ack the initiator. Initiators without an
// ack lose the walk's source candidate. Returns whether anything was
// eliminated. satisfied is scratch space (len n), cache the shared
// recycling state (may be nil).
func (s *distState) nlccDist(t *pattern.Template, w *constraint.Walk, satisfied []bool, cache recycler) bool {
	g := s.e.Graph()
	q0 := w.Seq[0]
	for i := range satisfied {
		satisfied[i] = false
	}
	s.e.Traverse("nlcc",
		func(seed func(graph.VertexID, any)) {
			for v := range s.active {
				if !s.active[v] || s.omega[v]&(1<<uint(q0)) == 0 {
					continue
				}
				if cache != nil && cache.satisfied(w.ID, graph.VertexID(v)) {
					satisfied[v] = true
					continue
				}
				seed(graph.VertexID(v), token{t: t, w: w})
			}
		},
		func(ctx *Ctx, target graph.VertexID, data any) {
			switch d := data.(type) {
			case token:
				s.handleToken(ctx, target, d)
			case ack:
				satisfied[target] = true
			}
		})
	if cache != nil {
		cache.ensure(w.ID)
	}
	var changed atomic.Bool
	s.e.ParallelRanks(func(rank int) {
		for v := 0; v < g.NumVertices(); v++ {
			if int(s.e.owner[v]) != rank || !s.active[v] || s.omega[v]&(1<<uint(q0)) == 0 {
				continue
			}
			if satisfied[v] {
				if cache != nil {
					cache.record(w.ID, graph.VertexID(v))
				}
				continue
			}
			s.omega[v] &^= 1 << uint(q0)
			changed.Store(true)
			if s.omega[v] == 0 {
				s.deactivate(graph.VertexID(v))
			}
		}
	})
	return changed.Load()
}

// handleToken processes a token addressed to `target`, the vertex proposed
// to realize w.Seq[len(path)]: receiver-side validation (the paper's "v_j
// matches the token.r-th entry" check), extension and forwarding.
func (s *distState) handleToken(ctx *Ctx, target graph.VertexID, d token) {
	g := s.e.Graph()
	w := d.w
	if !s.active[target] {
		return
	}
	tq := w.Seq[len(d.path)]
	if s.omega[target]&(1<<uint(tq)) == 0 {
		return
	}
	if len(d.path) > 0 {
		prev := d.path[len(d.path)-1]
		i := g.EdgeIndex(prev, target)
		if i < 0 || !s.edgeOn[int(g.AdjOffset(prev))+i] {
			// Edge state lives with prev's owner; no writes occur during a
			// traversal, so this cross-rank read is stable.
			return
		}
		// Edge-labeled templates constrain the hop's edge label.
		if el, ok := d.t.EdgeLabelBetween(d.w.Seq[len(d.path)-1], tq); ok && el != pattern.Wildcard {
			if g.EdgeLabelAt(prev, i) != el {
				return
			}
		}
	}
	// Consistency: a revisited template vertex must reuse its realization;
	// distinct template vertices must realize distinct graph vertices.
	for i, qi := range w.Seq[:len(d.path)] {
		if qi == tq {
			if d.path[i] != target {
				return
			}
		} else if d.path[i] == target {
			return
		}
	}
	next := token{t: d.t, w: w, path: append(append([]graph.VertexID(nil), d.path...), target)}
	if len(next.path) == len(w.Seq) {
		ctx.Send(next.path[0], ack{w: w})
		return
	}
	s.forwardToken(ctx, target, next)
}

// forwardToken sends the token toward candidates for the next sequence
// entry: directly to the already-assigned vertex on a revisit, or to all
// active neighbors otherwise.
func (s *distState) forwardToken(ctx *Ctx, cur graph.VertexID, d token) {
	g := s.e.Graph()
	w := d.w
	nextQ := w.Seq[len(d.path)]
	base := int(g.AdjOffset(cur))
	for i, qi := range w.Seq[:len(d.path)] {
		if qi == nextQ {
			assigned := d.path[i]
			if j := g.EdgeIndex(cur, assigned); j >= 0 && s.edgeOn[base+j] {
				ctx.Send(assigned, d)
			}
			return
		}
	}
	ctx.SendToNeighbors(cur,
		func(i int, u graph.VertexID) bool { return s.edgeOn[base+i] },
		func(i int, u graph.VertexID) any { return d })
}

// recycler abstracts the NLCC work-recycling store so the distributed
// engine runs against either its private per-run distCache or a
// caller-owned core.Cache shared across queries (Options.SharedCache).
// Implementations count their own hit/miss statistics inside satisfied.
type recycler interface {
	// satisfied reports whether v is recorded as satisfying constraint id.
	satisfied(id string, v graph.VertexID) bool
	// ensure pre-creates id's record where the implementation needs it so
	// that subsequent record calls are safe from concurrent ranks.
	ensure(id string)
	// record marks v as satisfying constraint id.
	record(id string, v graph.VertexID)
}

// distCache is the distributed work-recycling store: per constraint ID, the
// set of vertices that satisfied it (κ in Alg. 3). Bit vectors are written
// between traversals only (rank-parallel over owned vertices), so a plain
// mutex-per-record suffices.
type distCache struct {
	n    int
	sets map[string][]bool
	hits atomic.Int64
}

func newDistCache(n int) *distCache {
	return &distCache{n: n, sets: make(map[string][]bool)}
}

func (c *distCache) satisfied(id string, v graph.VertexID) bool {
	set, ok := c.sets[id]
	if ok && set[v] {
		c.hits.Add(1)
		return true
	}
	return false
}

// ensure pre-creates the record for id so that record() only performs
// element writes (safe from concurrent ranks; each vertex index is written
// by its owner only).
func (c *distCache) ensure(id string) {
	if _, ok := c.sets[id]; !ok {
		c.sets[id] = make([]bool, c.n)
	}
}

func (c *distCache) record(id string, v graph.VertexID) {
	c.sets[id][v] = true
}

// sharedRecycler adapts a caller-owned core.Cache to the recycler
// interface. core.Cache.Record takes its own write lock, so concurrent
// ranks need no ensure pre-creation; hit/miss accounting lives in the
// store. Cache content is correctness-neutral either way — a foreign or
// stale verdict only skips a pruning walk, and exact verification fixes
// precision — so sharing across queries needs no coordination beyond the
// store's own locking.
type sharedRecycler struct{ c *core.Cache }

func (r sharedRecycler) satisfied(id string, v graph.VertexID) bool { return r.c.Satisfied(id, v) }
func (r sharedRecycler) ensure(string)                              {}
func (r sharedRecycler) record(id string, v graph.VertexID)         { r.c.Record(id, v) }
