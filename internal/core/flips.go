package core

import (
	"context"
	"fmt"

	"approxmatch/internal/constraint"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
	"approxmatch/internal/prototype"
)

// FlipResult reports an edge-flip search (§3.1's "edge 'flip'" extension):
// each flip variant is its own exact search with its own candidate set
// (flips can introduce label pairs the deletion candidate set excluded), so
// the containment rule does not apply; the work-recycling cache still
// shares constraint results across flips.
type FlipResult struct {
	// Base is the exact search of the original template.
	Base *Solution
	// Flips lists the flip prototypes, aligned with Solutions.
	Flips []*prototype.Flip
	// Solutions holds the exact solution subgraph of each flip.
	Solutions []*Solution
	// Metrics aggregates the work across all searches.
	Metrics Metrics
}

// MatchFlipsContext searches the template and all of its single-edge-flip
// variants exactly. Every per-variant search carries a cancellation probe
// and the run returns ctx.Err() once the context fires.
func MatchFlipsContext(ctx context.Context, g *graph.Graph, t *pattern.Template, cfg Config) (*FlipResult, error) {
	return guardedRun(ctx, cfg.Budget, func(cc *CancelCheck) (*FlipResult, error) {
		return matchFlips(cc, g, t, cfg)
	})
}

func matchFlips(cc *CancelCheck, g *graph.Graph, t *pattern.Template, cfg Config) (*FlipResult, error) {
	flips, err := prototype.Flips(t)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// The flip variants are not a prototype set, but they share one run's
	// worth of machinery: cache, label frequencies, metrics.
	e := newEngine(g, nil, cfg, cc)
	search := func(tpl *pattern.Template) *Solution {
		cc.Check()
		s := maxCandidateSet(g, tpl, cfg.Restrict, cc, &e.metrics)
		// Each flip variant has its own candidate set; compact it when the
		// label classes are selective enough. Cache keys stay in original-id
		// space, so recycling still crosses flips.
		s = e.compact(s)
		return searchTemplateOn(s, tpl, buildLocalProfile(tpl), constraint.Plan(tpl, e.freq, int64(g.NumVertices()), g.AvgDegree()), e.cache, cc, cfg.CountMatches, &e.metrics, cfg.kernel())
	}
	res := &FlipResult{Flips: flips, Base: search(t)}
	for _, f := range flips {
		res.Solutions = append(res.Solutions, search(f.Template))
	}
	e.foldCache()
	res.Metrics = e.metrics
	return res, nil
}

// TotalMatchCount sums counts across the base and every flip (-1 when not
// counted).
func (r *FlipResult) TotalMatchCount() int64 {
	if r.Base.MatchCount < 0 {
		return -1
	}
	total := r.Base.MatchCount
	for _, sol := range r.Solutions {
		if sol.MatchCount < 0 {
			return -1
		}
		total += sol.MatchCount
	}
	return total
}
