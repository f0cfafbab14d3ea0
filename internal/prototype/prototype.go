// Package prototype generates the prototype set P_k of a search template —
// every connected, non-isomorphic variant obtained by deleting at most k
// optional edges (Def. 1 in the paper) — and exposes the edit-distance DAG
// (which prototypes are one edge removal apart) that powers the containment
// rule (Obs. 1), work recycling (Obs. 2) and the match-enumeration
// extension optimization (§4).
package prototype

import (
	"fmt"
	"math/bits"
	"sort"

	"approxmatch/internal/pattern"
)

// Prototype is one entry of P_k: a connected template variant at
// edit-distance Dist from the base template.
type Prototype struct {
	// Template is the prototype's own structure (same vertices/labels as
	// the base, subset of its edges).
	Template *pattern.Template
	// Dist is the edit-distance δ from the base template (0 = base).
	Dist int
	// Index is the prototype's position in Set.Protos.
	Index int
	// EdgeMask has bit i set iff base edge i is present in this prototype.
	EdgeMask uint64
	// Parents lists indices of prototypes at Dist-1 from which this one is
	// derived by removing one edge (empty for the base template).
	Parents []int
	// Children lists indices of prototypes at Dist+1 derived from this one
	// by removing one edge.
	Children []int
	// Canon is the canonical isomorphism code, shared by any other edge
	// subset isomorphic to this one.
	Canon string
}

// Set is the complete prototype set for a template and edit-distance bound.
type Set struct {
	// Base is the original search template H0.
	Base *pattern.Template
	// K is the requested edit-distance bound.
	K int
	// MaxDist is the furthest distance actually populated; it can be less
	// than K when further removals always disconnect the template.
	MaxDist int
	// Protos lists all prototypes; Protos[0] is the base template.
	Protos []*Prototype
	// ByDist[δ] lists prototype indices at distance δ.
	ByDist [][]int
	// ByMask maps every connected edge subset encountered during
	// generation to the prototype index of its isomorphism class
	// representative. Distinct masks can map to one index.
	ByMask map[uint64]int
}

// Generate builds the prototype set for template t within edit-distance k.
// Prototypes are deduplicated by label-preserving isomorphism; each retains
// links to its distance-one relatives. Mandatory edges are never removed.
// An error is returned when the base template has more than 64 edges (the
// edge-mask width) — far beyond any practical search template.
func Generate(t *pattern.Template, k int) (*Set, error) {
	if t.NumEdges() > 64 {
		return nil, fmt.Errorf("prototype: template has %d edges, limit 64", t.NumEdges())
	}
	if k < 0 {
		return nil, fmt.Errorf("prototype: negative edit-distance %d", k)
	}
	fullMask := uint64(0)
	if ne := t.NumEdges(); ne == 64 {
		fullMask = ^uint64(0)
	} else {
		fullMask = (uint64(1) << uint(t.NumEdges())) - 1
	}
	s := &Set{Base: t, K: k}
	base := &Prototype{Template: t, Dist: 0, Index: 0, EdgeMask: fullMask, Canon: pattern.CanonicalCode(t)}
	s.Protos = append(s.Protos, base)
	s.ByDist = append(s.ByDist, []int{0})

	// The BFS expands every connected edge subset (mask) level by level but
	// folds isomorphic masks into one Prototype per class: ByMask maps each
	// mask to its class index, byCanon maps canonical codes to class
	// indices within the current level. DAG links connect classes.
	s.ByMask = map[uint64]int{fullMask: 0}

	level := []uint64{fullMask}
	for dist := 1; dist <= k && len(level) > 0; dist++ {
		byCanon := make(map[string]int)
		var next []uint64
		var created []int
		for _, parentMask := range level {
			parentIdx := s.ByMask[parentMask]
			for ei := 0; ei < t.NumEdges(); ei++ {
				bit := uint64(1) << uint(ei)
				if parentMask&bit == 0 || t.Mandatory(ei) {
					continue
				}
				mask := parentMask &^ bit
				if ci, ok := s.ByMask[mask]; ok {
					link(s.Protos[parentIdx], s.Protos[ci])
					continue
				}
				sub, err := t.Restrict(mask)
				if err != nil {
					continue // disconnected; not a prototype
				}
				canon := pattern.CanonicalCode(sub)
				ci, ok := byCanon[canon]
				if !ok {
					p := &Prototype{
						Template: sub,
						Dist:     dist,
						Index:    len(s.Protos),
						EdgeMask: mask,
						Canon:    canon,
					}
					s.Protos = append(s.Protos, p)
					byCanon[canon] = p.Index
					created = append(created, p.Index)
					ci = p.Index
				}
				s.ByMask[mask] = ci
				next = append(next, mask)
				link(s.Protos[parentIdx], s.Protos[ci])
			}
		}
		if len(created) > 0 {
			s.ByDist = append(s.ByDist, created)
			s.MaxDist = dist
		}
		level = next
	}
	for _, p := range s.Protos {
		sort.Ints(p.Parents)
		sort.Ints(p.Children)
		p.Parents = dedupInts(p.Parents)
		p.Children = dedupInts(p.Children)
	}
	return s, nil
}

// link records the parent/child relation between a distance-δ prototype and
// a distance-δ+1 prototype.
func link(parent, child *Prototype) {
	parent.Children = append(parent.Children, child.Index)
	child.Parents = append(child.Parents, parent.Index)
}

func dedupInts(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i > 0 && x == xs[i-1] {
			continue
		}
		out = append(out, x)
	}
	return out
}

// Count returns the number of prototype isomorphism classes. The paper's
// prototype counts (e.g. 1,941 for the 6-Clique at k=4) enumerate connected
// edge subsets before isomorphism folding; MaskCount reports that number.
func (s *Set) Count() int { return len(s.Protos) }

// MaskCount returns the number of distinct connected edge subsets within
// the edit-distance bound — the paper's prototype count. Searching one
// representative per isomorphism class covers all of them (isomorphic
// prototypes have identical solution subgraphs).
func (s *Set) MaskCount() int { return len(s.ByMask) }

// MaskCountAt returns the number of connected edge subsets at distance δ.
func (s *Set) MaskCountAt(dist int) int {
	base := bits.OnesCount64(s.Protos[0].EdgeMask)
	n := 0
	for mask := range s.ByMask {
		if base-bits.OnesCount64(mask) == dist {
			n++
		}
	}
	return n
}

// CountAt returns the number of prototypes at distance δ (0 when δ exceeds
// MaxDist).
func (s *Set) CountAt(dist int) int {
	if dist < 0 || dist >= len(s.ByDist) {
		return 0
	}
	return len(s.ByDist[dist])
}

// At returns the prototype indices at distance δ.
func (s *Set) At(dist int) []int {
	if dist < 0 || dist >= len(s.ByDist) {
		return nil
	}
	return s.ByDist[dist]
}

// RemovedEdge returns the base-template edge ids present in parent but
// absent from child; for a distance-one pair this has length one when the
// masks differ by a single bit (mask-level relation). Because prototypes
// represent isomorphism classes, the difference can occasionally span more
// bits; callers needing the exact extra-edge semantics should use
// ExtensionEdges.
func (s *Set) RemovedEdge(parent, child int) []int {
	diff := s.Protos[parent].EdgeMask &^ s.Protos[child].EdgeMask
	var ids []int
	for i := 0; i < s.Base.NumEdges(); i++ {
		if diff&(1<<uint(i)) != 0 {
			ids = append(ids, i)
		}
	}
	return ids
}

// RemovedLabelPairs returns, for a given distance δ, the (wildcard-aware)
// set of label pairs of every base-template edge that is missing from at
// least one prototype at distance δ. When searching distance δ-1 inside the
// union of distance δ solution subgraphs (Obs. 1), edges whose label pair
// matches this set are retained even if no δ solution used them.
func (s *Set) RemovedLabelPairs(dist int) *pattern.PairSet {
	out := pattern.NewPairSet()
	for _, pi := range s.At(dist) {
		mask := s.Protos[pi].EdgeMask
		for i, e := range s.Base.Edges() {
			if mask&(1<<uint(i)) != 0 {
				continue
			}
			out.Add(s.Base.Label(e.I), s.Base.Label(e.J))
		}
	}
	return out
}
