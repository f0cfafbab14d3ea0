package core

import (
	"time"

	"approxmatch/internal/bitvec"
	"approxmatch/internal/constraint"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
)

// MaxCandidateSet computes M* (§3.1): the subgraph that could participate in
// a match of ANY prototype of t, regardless of edit-distance. It uses only
// local information: vertices must carry a template label; edges must span a
// template label pair; iteratively, a vertex must retain (a) at least one
// active neighbor compatible with some adjacency of a candidate template
// vertex and (b) active neighbors covering every mandatory neighbor of that
// candidate. Metrics are accumulated into m.CandidateMessages.
func MaxCandidateSet(g *graph.Graph, t *pattern.Template, m *Metrics) *State {
	return maxCandidateSet(g, t, nil, nil, m)
}

// MaxCandidateSetWorkers is MaxCandidateSet; workers is ignored.
//
// Deprecated: M* has one schedule, on the calling goroutine. Call
// MaxCandidateSet.
func MaxCandidateSetWorkers(g *graph.Graph, t *pattern.Template, workers int, m *Metrics) *State {
	return MaxCandidateSet(g, t, m)
}

// candsetPrep holds the per-template lookup tables of maxCandidateSet.
type candsetPrep struct {
	labelBits labelTable
	wildBits  uint64
	pairs     *pattern.PairSet
	edgeLabel labelTable // non-zero for the edge labels some template edge names
	elWild    bool       // some template edge accepts every edge label
	prof      *constraint.MandatoryProfile
	single    bool
}

func newCandsetPrep(t *pattern.Template) *candsetPrep {
	p := &candsetPrep{
		pairs:  t.EdgePairSet(),
		prof:   constraint.BuildMandatoryProfile(t),
		single: t.NumVertices() == 1,
	}
	p.labelBits, p.wildBits = vertexLabelBits(t)
	var named map[pattern.Label]bool
	named, p.elWild = t.EdgeLabelSet()
	for l := range named {
		p.edgeLabel.add(l, 1)
	}
	return p
}

// seedState is the one seeding pass of M*: a fresh State and ω in which
// ω(v) comes from v's label (zero outside the restrict mask), the vertex bit
// from ω(v) ≠ 0, and out-slot (v,i) is kept iff both endpoints have a
// non-zero ω, their label pair is spanned by a template edge and some
// template edge accepts the slot's edge label. Every term reads only the
// graph, the mask and the template, and every term is symmetric in the two
// endpoints: the owner of the reverse slot reaches the same verdict, so
// writing only the slots a vertex owns leaves the slot vector symmetric.
func (p *candsetPrep) seedState(g *graph.Graph, restrict *bitvec.Vector) (*State, candidateSet) {
	s := NewEmptyState(g)
	omega := make(candidateSet, g.NumVertices())
	bitsOf := func(v graph.VertexID) uint64 {
		if restrict != nil && !restrict.Get(int(v)) {
			return 0
		}
		return p.labelBits.at(g.Label(v)) | p.wildBits
	}
	for v := graph.VertexID(0); int(v) < g.NumVertices(); v++ {
		omega[v] = bitsOf(v)
		if omega[v] == 0 {
			continue
		}
		s.verts.Set(int(v))
		base := int(g.AdjOffset(v))
		lv := g.Label(v)
		for i, u := range g.Neighbors(v) {
			if bitsOf(u) != 0 && p.pairs.Matches(lv, g.Label(u)) &&
				(p.elWild || p.edgeLabel.at(g.EdgeLabelAt(v, i)) != 0) {
				s.edges.Set(base + i)
			}
		}
	}
	return s, omega
}

// maxCandidateSet is MaxCandidateSet with an optional restriction mask (the
// pipeline seeds from the induced subgraph of the mask's vertices instead of
// the full graph — the incremental-maintenance dirty region) and a
// cancellation probe threaded through the fixpoint loop.
func maxCandidateSet(g *graph.Graph, t *pattern.Template, restrict *bitvec.Vector, cc *CancelCheck, m *Metrics) *State {
	defer func(start time.Time) { m.CandidateTime += time.Since(start) }(time.Now())
	p := newCandsetPrep(t)
	s, omega := p.seedState(g, restrict)
	cc.Check() // the seed does not tick; a fired context stops before round one
	// The fixpoint has no edge phase to sweep up after the vertices it
	// dropped.
	if candidateFixpoint(s, omega, p, cc, m) {
		s.clearDanglingSlots()
	}
	return s
}

// unviable returns the candidates of ov that fail the max-candidate-set
// requirement against the gathered candidate masks of the vertex's active
// neighbours (State.gatherOmega). Existence questions distribute over the
// union of those masks, so the weak requirement and single-count mandatory
// groups cost O(1) per candidate; only multi-count groups count neighbours.
func (p *candsetPrep) unviable(ov uint64, nbr []uint64) (rm uint64) {
	if p.single {
		return 0
	}
	var nbrUnion uint64
	for _, ow := range nbr {
		nbrUnion |= ow
	}
	for rest := ov; rest != 0; rest &= rest - 1 {
		if q := trailingZeros(rest); !p.viable(q, nbr, nbrUnion) {
			rm |= 1 << uint(q)
		}
	}
	return rm
}

func (p *candsetPrep) viable(q int, nbr []uint64, nbrUnion uint64) bool {
	// Weak requirement: at least one active neighbor that can match some H0
	// neighbor of q (prototypes keep the template connected, so every match
	// vertex has at least one matched neighbor).
	if nbrUnion&p.prof.AllNbr(q) == 0 {
		return false
	}
	// Mandatory requirement: neighbors covering every mandatory neighbor
	// group with multiplicity.
	for _, g := range p.prof.Mandatory(q) {
		if nbrUnion&g.Mask == 0 {
			return false
		}
		if g.Count > 1 && !holdsAtLeast(nbr, g.Mask, g.Count) {
			return false
		}
	}
	return true
}
