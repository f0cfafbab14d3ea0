package core

import (
	"context"
	"fmt"
	"time"

	"approxmatch/internal/bitvec"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
	"approxmatch/internal/prototype"
)

// TopDownResult is the output of the exploratory (top-down) search mode
// (§4, "Top-Down Search Mode"; evaluated in §5.5 with the WDC-4 6-Clique):
// the search starts at the exact template (δ=0) and relaxes one edit at a
// time until matches appear or the budget k is exhausted.
type TopDownResult struct {
	// Set is the full prototype set up to the configured k.
	Set *prototype.Set
	// FoundDist is the edit distance at which the first matches appeared,
	// or -1 if none were found within k.
	FoundDist int
	// PrototypesSearched counts the prototypes examined across all levels.
	PrototypesSearched int
	// MatchingVertices marks the vertices participating in a match of any
	// prototype at FoundDist.
	MatchingVertices *bitvec.Vector
	// Solutions holds the per-prototype solutions at FoundDist, indexed by
	// prototype index (nil elsewhere).
	Solutions []*Solution
	// Metrics aggregates work counters; Levels records per-level stats in
	// top-down (increasing δ) order.
	Metrics Metrics
	Levels  []LevelStats
}

// RunTopDownContext performs exploratory search: for δ = 0, 1, ..., k it
// searches every prototype at distance δ on the maximum candidate set and
// stops at the first δ with a non-empty match set. Work recycling naturally
// applies in the top-down direction too (Obs. 2): constraints proven for a δ
// prototype are shared with the δ+1 prototypes that inherit them. width is
// the level's width, as in RunParallelContext: up to that many prototypes of
// a level are searched concurrently, and the answer is the same at every
// width.
//
// The per-prototype searches carry cancellation probes and the run returns
// ctx.Err() once the context fires; a panic inside a search is returned as
// a *PanicError. Budget exhaustion surfaces as a plain ErrBudgetExhausted
// error — the top-down mode has no containment guarantee to salvage a
// partial result from (an unfinished level says nothing about smaller
// distances).
func RunTopDownContext(ctx context.Context, g *graph.Graph, t *pattern.Template, cfg Config, width int) (*TopDownResult, error) {
	return guardedRun(ctx, cfg.Budget, func(cc *CancelCheck) (*TopDownResult, error) {
		return runTopDown(cc, g, t, cfg, width)
	})
}

func runTopDown(cc *CancelCheck, g *graph.Graph, t *pattern.Template, cfg Config, width int) (*TopDownResult, error) {
	set, err := prototype.Generate(t, cfg.EditDistance)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	e := newEngine(g, set, cfg, cc)
	res := &TopDownResult{
		Set:              set,
		FoundDist:        -1,
		MatchingVertices: bitvec.New(g.NumVertices()),
		Solutions:        make([]*Solution, set.Count()),
	}
	candidate := maxCandidateSet(g, t, e.cfg.Restrict, cc, &e.metrics)
	// Top-down searches every level on the candidate set, so one compaction
	// pays off across all of them.
	frac := ActiveFraction(candidate)
	searchCand := e.compact(candidate)

	for dist := 0; dist <= set.MaxDist; dist++ {
		cc.Check()
		start := time.Now()
		ids := set.At(dist)
		sols, err := e.searchLevel(searchCand, searchCand, ids, dist, width)
		if err != nil {
			return nil, err
		}
		res.PrototypesSearched += len(ids)
		var labels int64
		levelVerts := bitvec.New(g.NumVertices())
		for _, sol := range sols {
			res.Solutions[sol.Proto] = sol
			levelVerts.Or(sol.Verts)
			labels += int64(sol.Verts.Count())
		}
		res.Levels = append(res.Levels, LevelStats{
			Dist:            dist,
			Prototypes:      set.CountAt(dist),
			ActiveVertices:  levelVerts.Count(),
			LabelsGenerated: labels,
			Duration:        time.Since(start),
			ActiveFraction:  frac,
			Compacted:       searchCand.View() != nil,
			Complete:        true,
		})
		if levelVerts.Any() {
			res.FoundDist = dist
			res.MatchingVertices = levelVerts
			break
		}
	}
	res.Metrics = e.metrics
	return res, nil
}
