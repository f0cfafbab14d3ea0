package core

import (
	"approxmatch/internal/bitvec"
	"approxmatch/internal/graph"
)

// This file implements physical search-space reduction: the containment
// rule (Obs. 1) shrinks the active subgraph logically at every edit-distance
// level, and once the active fraction drops below compactBelow the
// engine extracts a compacted graph.View and searches that instead, so the
// kernels stop paying for the dead regions of the original CSR.
//
// Compaction is semantically invisible. The view's vertex remap is monotone
// (see graph.NewView), so every kernel — the LCC fixpoints, the NLCC walks
// and the verification phase — replays the exact trajectory it would have on
// the original graph, and the per-search results are translated back to
// original ids before they are emitted. Work-recycling cache keys are
// translated eagerly (see nlcc), keeping recycled
// verdicts shareable across compacted and uncompacted searches.

// compactBelow is the active fraction (vertices plus directed slots) under
// which a search state is compacted into a graph.View.
const compactBelow = 0.5

// ActiveFraction returns the fraction of s's underlying graph (vertices plus
// directed edge slots) that is still active — the compaction trigger and the
// per-level trajectory reported in LevelStats.
func ActiveFraction(s *State) float64 {
	total := s.g.NumVertices() + s.g.NumDirectedEdges()
	if total == 0 {
		return 1
	}
	return float64(s.verts.Count()+s.edges.Count()) / float64(total)
}

// CompactState returns a state physically restricted to the active subgraph
// of s when its active fraction is below compactBelow, and s itself
// otherwise. A state that is already a view is returned unchanged (levels
// are always rebuilt in original space, so views never nest). The returned
// state is fully active over a fresh graph.View; results computed on it must
// be translated back through State.View. Compaction accounting is recorded
// into m, and the view's memory is charged against cc's budget: compaction
// is an optimization, so when the view does not fit the check declines
// (Metrics.CompactionsDeclined) and the search proceeds on the uncompacted
// state instead of aborting — the result is identical either way.
func CompactState(s *State, m *Metrics, cc *CancelCheck) *State {
	return compactState(s, compactBelow, m, cc)
}

// compactState is CompactState at the given threshold; a threshold <= 0
// disables compaction.
func compactState(s *State, threshold float64, m *Metrics, cc *CancelCheck) *State {
	if threshold <= 0 || s.view != nil {
		return s
	}
	m.CompactionChecks++
	frac := ActiveFraction(s)
	m.CompactionFracBefore += frac
	if frac >= threshold {
		m.CompactionFracAfter += frac
		return s
	}
	if !cc.TryChargeBytes(viewBytesEstimate(s)) {
		m.CompactionsDeclined++
		m.CompactionFracAfter += frac
		return s
	}
	vw := graph.NewView(s.g, s.verts, s.edges)
	cg := vw.Graph()
	vs := &State{
		g:     cg,
		verts: bitvec.New(cg.NumVertices()),
		edges: bitvec.New(cg.NumDirectedEdges()),
		view:  vw,
	}
	vs.verts.SetAll()
	vs.edges.SetAll()
	m.Compactions++
	m.CompactionFracAfter++ // the compacted structure is fully active
	if reclaimed := s.g.TopologyBytes() + s.StateBytes() -
		cg.TopologyBytes() - vs.StateBytes(); reclaimed > 0 {
		m.CompactionBytesReclaimed += reclaimed
	}
	return vs
}

// viewBytesEstimate upper-bounds the memory a compacted view of s would
// allocate: the dense CSR over the nv active vertices and ns active slots
// (offsets, adjacency, labels, optional edge labels), the old↔new remap
// tables, and the fully-active state bitvecs.
func viewBytesEstimate(s *State) int64 {
	nv := int64(s.verts.Count())
	ns := int64(s.edges.Count())
	n := int64(s.g.NumVertices())
	est := 8*(nv+1) + 4*ns + 4*nv // offsets + adj + labels
	if s.g.HasEdgeLabels() {
		est += 4 * ns
	}
	est += 4*nv + 8*ns + 4*n // origVerts + origSlots + newVerts remaps
	est += (nv + ns) / 8     // state bitvecs
	return est
}

// compact applies the run's compaction threshold — compactBelow unless a
// test set Config.compactOverride — to a level state, charging the view
// against the run's budget. It must only be called from the coordinator
// goroutine (it writes the engine metrics).
func (e *engine) compact(s *State) *State {
	threshold := compactBelow
	if o := e.cfg.compactOverride; o != 0 {
		threshold = o
	}
	return compactState(s, threshold, &e.metrics, e.cc)
}
