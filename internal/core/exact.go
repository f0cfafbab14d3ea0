package core

import (
	"time"

	"approxmatch/internal/constraint"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
)

// ExactMatch runs the exact constraint-checking pipeline for a single
// template t on g: candidate-set generation, LCC, NLCC and final
// verification — the PruneJuice-style exact search that both the naïve
// baseline (§5.3) and the per-prototype search build on. No state is shared
// with other searches: no recycling cache, no containment.
func ExactMatch(g *graph.Graph, t *pattern.Template, freqOrdering, countMatches bool) (*Solution, Metrics) {
	var m Metrics
	s := maxCandidateSet(g, t, nil, nil, &m)
	var freq constraint.LabelFreq
	if freqOrdering {
		freq = SearchFrequencies(g)
	}
	sol := searchTemplateOn(s, t, buildLocalProfile(t), constraint.Plan(t, freq, int64(g.NumVertices()), g.AvgDegree()), nil, nil, countMatches, &m, kernelOpts{})
	return sol, m
}

// SearchFrequencies returns the label-frequency map that frequency
// ordering reads: each label's vertex count in g, plus pattern.Wildcard,
// which occurs at every vertex. The map is fresh and never written after,
// so concurrent searches may share it.
func SearchFrequencies(g *graph.Graph) constraint.LabelFreq {
	freq := g.LabelFrequencies()
	freq[pattern.Wildcard] = int64(g.NumVertices())
	return freq
}

// searchTemplateOn implements Alg. 2 for one template on a given starting
// state (which is not modified): LCC fixpoint, NLCC pruning walks with
// re-LCC after eliminations, then exact final verification. Every phase runs
// on the calling goroutine.
func searchTemplateOn(level *State, t *pattern.Template, prof *localProfile, walks []*constraint.Walk, cache *Cache, cc *CancelCheck, count bool, m *Metrics, opts kernelOpts) *Solution {
	chargeSearch(level, cc, m)
	s := level.Clone()
	omega := initCandidates(s, t)
	phase := time.Now()
	lcc(s, omega, prof, cc, m)
	m.LCCTime += time.Since(phase)
	return finishSearch(s, omega, t, prof, walks, cache, cc, count, m, opts)
}

// chargeSearch counts a prototype search and charges its two big
// allocations — the state copy and the candidate masks — against the run's
// byte budget before they are made.
func chargeSearch(level *State, cc *CancelCheck, m *Metrics) {
	m.PrototypesSearched++
	cc.ChargeBytes(level.StateBytes() + 8*int64(level.g.NumVertices()))
}

// finishSearch is Alg. 2 after the first LCC fixpoint: s and omega are the
// search's own state and ω at that fixpoint, by lcc or by a lane of
// lccBlock.
func finishSearch(s *State, omega candidateSet, t *pattern.Template, prof *localProfile, walks []*constraint.Walk, cache *Cache, cc *CancelCheck, count bool, m *Metrics, opts kernelOpts) *Solution {
	var phase time.Time
	for _, w := range walks {
		cc.Tick()
		phase = time.Now()
		changed := nlcc(s, omega, t, w, cache, cc, m)
		m.NLCCTime += time.Since(phase)
		if changed {
			phase = time.Now()
			lcc(s, omega, prof, cc, m)
			m.LCCTime += time.Since(phase)
		}
	}

	sol := &Solution{Proto: -1, MatchCount: -1}
	phase = time.Now()
	if constraint.LocalSufficient(t) {
		sol.Edges = cleanEdges(s)
		sol.Verts = s.VertexBits().Clone()
	} else {
		sol.Edges = verifyExact(s, omega, t, cc, m, opts)
		sol.Verts = s.VertexBits().Clone()
	}
	m.VerifyTime += time.Since(phase)
	if count {
		phase = time.Now()
		sol.MatchCount = countMatches(s, omega, t, cc, m, opts)
		m.CountTime += time.Since(phase)
	}
	// A compacted search produced view-local ids; emit original ids so the
	// public results are independent of whether compaction fired. Matches
	// biject between the spaces, so the count needs no adjustment.
	if vw := s.view; vw != nil {
		sol.Verts, sol.Edges = vw.OrigBits(sol.Verts, sol.Edges)
	}
	return sol
}
