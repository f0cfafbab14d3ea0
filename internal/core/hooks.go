package core

import (
	"context"

	"approxmatch/internal/bitvec"
	"approxmatch/internal/constraint"
	"approxmatch/internal/pattern"
)

// SearchOn runs the full single-template search (Alg. 2) on an explicit
// starting state, exposing the per-prototype engine step to other packages
// (the distributed runtime's parallel-prototype-search mode and the
// deployment-size experiments). The level state is not modified. A fired
// ctx aborts the search with a cancellation panic recovered by
// RecoverCancel — callers that pass a cancellable context must defer it.
func SearchOn(ctx context.Context, level *State, t *pattern.Template, cache *Cache, freq constraint.LabelFreq, count bool, m *Metrics) *Solution {
	cc := NewCancelCheck(ctx)
	// Phases shorter than one probe interval must not be free, or
	// small-graph work never hits the budget.
	defer cc.Release()
	cc.Check()
	return searchTemplateOn(level, t, buildLocalProfile(t), constraint.Plan(t, freq, int64(level.Graph().NumVertices()), level.Graph().AvgDegree()), cache, cc, count, m, kernelOpts{})
}

// FinalizeExact reduces an already-pruned state (recall-safe, possibly
// imprecise) to the exact solution subgraph of t: it rebuilds candidates,
// re-runs the LCC fixpoint and applies the exact verification phase. It
// mutates s and returns the participating directed-edge bit vector. The
// distributed engine calls this after gathering its pruned subgraph — the
// in-process analogue of the paper's "reload the pruned graph on a smaller
// deployment" step. A fired ctx aborts with a cancellation panic recovered
// by RecoverCancel.
func FinalizeExact(ctx context.Context, s *State, t *pattern.Template, m *Metrics) *bitvec.Vector {
	cc := NewCancelCheck(ctx)
	defer cc.Release()
	cc.Check()
	omega := initCandidates(s, t)
	prof := buildLocalProfile(t)
	lcc(s, omega, prof, cc, m)
	if constraint.LocalSufficient(t) {
		return cleanEdges(s)
	}
	return verifyExact(s, omega, t, cc, m, kernelOpts{})
}

// FinalizeSolution runs FinalizeExact on s (mutating it), captures the
// surviving vertices and, when count is set, the match count, and — when s
// is a compacted view state — translates the solution back to original ids.
// It packages the distributed engine's gather-and-finalize step so callers
// can compact the gathered state first (CompactState) without handling the
// id translation themselves.
func FinalizeSolution(ctx context.Context, s *State, t *pattern.Template, count bool, m *Metrics) *Solution {
	sol := &Solution{Proto: -1, MatchCount: -1}
	sol.Edges = FinalizeExact(ctx, s, t, m)
	sol.Verts = s.VertexBits().Clone()
	if count {
		sol.MatchCount = CountOn(ctx, s, t, m)
	}
	if vw := s.view; vw != nil {
		sol.Verts, sol.Edges = vw.OrigBits(sol.Verts, sol.Edges)
	}
	return sol
}

// CountOn enumerates matches of t restricted to the given exact state. A
// fired ctx aborts with a cancellation panic recovered by RecoverCancel.
func CountOn(ctx context.Context, s *State, t *pattern.Template, m *Metrics) int64 {
	cc := NewCancelCheck(ctx)
	defer cc.Release()
	cc.Check()
	omega := initCandidates(s, t)
	return countMatches(s, omega, t, cc, m, kernelOpts{})
}
