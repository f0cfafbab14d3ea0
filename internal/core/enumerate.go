package core

import (
	"fmt"
	"math/bits"

	"approxmatch/internal/graph"
)

// CountAllMatches enumerates every prototype's matches independently and
// returns per-prototype counts. It is the unoptimized baseline for the
// match-enumeration study of Fig. 9(b). When m is non-nil, candidate
// probes (the distributed engine's messages) are accumulated into it.
func CountAllMatches(r *Result, m *Metrics) []int64 {
	if m == nil {
		m = &Metrics{}
	}
	counts := make([]int64, r.Set.Count())
	for pi := range r.Set.Protos {
		s := r.SolutionState(pi)
		t := r.Set.Protos[pi].Template
		omega := initCandidates(s, t)
		var count int64
		enumerateMatches(s, omega, t, nil, m, kernelOpts{}, func([]graph.VertexID) bool {
			count++
			return true
		})
		counts[pi] = count
	}
	return counts
}

// CountAllMatchesExtended counts matches for every prototype using the
// edit-distance enumeration optimization of §4: since a δ-prototype match
// is exactly a (δ+1)-descendant match whose one extra edge is present,
// matches only need to be *searched* at the terminal (deepest) prototypes;
// every shallower prototype's matches are recognized on the fly by testing
// which extra edges the background graph provides. Each ancestor edge
// subset is assigned to a single canonical terminal descendant, so every
// match is counted exactly once.
// When m is non-nil, candidate probes and extension edge checks are
// accumulated into it (each edge check would be one message in the
// distributed engine).
func CountAllMatchesExtended(r *Result, m *Metrics) ([]int64, error) {
	if m == nil {
		m = &Metrics{}
	}
	set := r.Set
	base := set.Base
	counts := make([]int64, set.Count())

	// Optional-edge mask of the base template (mandatory edges are never
	// removed, hence never "extra").
	var optional uint64
	for i := 0; i < base.NumEdges(); i++ {
		if !base.Mandatory(i) {
			optional |= 1 << uint(i)
		}
	}
	deepPop := bits.OnesCount64(set.Protos[0].EdgeMask) - set.MaxDist

	// Terminal masks and the ancestor masks assigned to each.
	connected := func(mask uint64) bool {
		_, err := base.Restrict(mask)
		return err == nil
	}
	descend := func(mask uint64) uint64 {
		for bits.OnesCount64(mask) > deepPop {
			moved := false
			for ei := 0; ei < base.NumEdges(); ei++ {
				bit := uint64(1) << uint(ei)
				if mask&bit == 0 || optional&bit == 0 {
					continue
				}
				if next := mask &^ bit; connected(next) {
					mask = next
					moved = true
					break
				}
			}
			if !moved {
				break // childless mask: terminal above the deepest level
			}
		}
		return mask
	}
	// Only class-representative masks need counts; assign each to one
	// canonical terminal descendant and enumerate just those terminals.
	assigned := make(map[uint64][]uint64) // terminal -> ancestor rep masks
	for _, p := range set.Protos {
		term := descend(p.EdgeMask)
		if term != p.EdgeMask {
			assigned[term] = append(assigned[term], p.EdgeMask)
		} else if _, ok := assigned[term]; !ok {
			assigned[term] = nil
		}
	}

	maskCount := make(map[uint64]int64, len(assigned))
	for mask := range assigned {
		tmpl, err := base.Restrict(mask)
		if err != nil {
			return nil, fmt.Errorf("core: terminal mask disconnected: %w", err)
		}
		// Enumerate the terminal mask's matches within its class's exact
		// solution subgraph (solution subgraphs are isomorphism-class
		// invariants, so the class state is complete for this mask).
		ci, ok := set.ByMask[mask]
		if !ok {
			return nil, fmt.Errorf("core: mask %b missing class", mask)
		}
		s := r.SolutionState(ci)
		omega := initCandidates(s, tmpl)
		ancestors := assigned[mask]
		enumerateMatches(s, omega, tmpl, nil, m, kernelOpts{}, func(match []graph.VertexID) bool {
			maskCount[mask]++
			if len(ancestors) == 0 {
				return true
			}
			// Which extra optional edges does the graph provide for this
			// assignment?
			var present uint64
			for ei := 0; ei < base.NumEdges(); ei++ {
				bit := uint64(1) << uint(ei)
				if mask&bit != 0 || optional&bit == 0 {
					continue
				}
				e := base.Edge(ei)
				m.VerifyMessages++
				if r.Graph.HasEdge(match[e.I], match[e.J]) {
					present |= bit
				}
			}
			for _, anc := range ancestors {
				if extra := anc &^ mask; extra&^present == 0 {
					maskCount[anc]++
				}
			}
			return true
		})
	}
	for pi, p := range set.Protos {
		counts[pi] = maskCount[p.EdgeMask]
	}
	return counts, nil
}
