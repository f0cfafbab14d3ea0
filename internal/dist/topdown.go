package dist

import (
	"context"
	"fmt"
	"time"

	"approxmatch/internal/bitvec"
	"approxmatch/internal/core"
	"approxmatch/internal/pattern"
	"approxmatch/internal/prototype"
)

// TopDownResult mirrors core.TopDownResult for the distributed engine.
type TopDownResult struct {
	Set                *prototype.Set
	FoundDist          int
	PrototypesSearched int
	MatchingVertices   *bitvec.Vector
	Solutions          []*core.Solution
	// VerifyMetrics counts the sequential finalization work plus the
	// engine's fault-plane counters.
	VerifyMetrics core.Metrics
	Levels        []core.LevelStats
}

// RunTopDown performs exploratory search on the distributed engine: every
// prototype at distance δ is searched on the candidate set, δ growing until
// matches appear (§4's top-down mode). Work recycling applies across levels
// through the shared κ cache.
func RunTopDown(e *Engine, t *pattern.Template, opts Options) (*TopDownResult, error) {
	return RunTopDownContext(context.Background(), e, t, opts)
}

// RunTopDownContext is RunTopDown honoring ctx: the context is checked
// between levels, prototypes and pruning walks, and a fired context makes
// the run return ctx.Err(). When ctx never fires, the results are identical
// to RunTopDown's.
func RunTopDownContext(ctx context.Context, e *Engine, t *pattern.Template, opts Options) (*TopDownResult, error) {
	if err := opts.unsupported(); err != nil {
		return nil, err
	}
	ctx = opts.withBudget(ctx)
	var res *TopDownResult
	err := func() (err error) {
		defer core.RecoverCancel(&err)
		res, err = runTopDown(ctx, e, t, opts)
		return err
	}()
	if err != nil {
		return nil, err
	}
	return res, nil
}

func runTopDown(ctx context.Context, e *Engine, t *pattern.Template, opts Options) (*TopDownResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g := e.Graph()
	set, err := prototype.Generate(t, opts.EditDistance)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	res := &TopDownResult{
		Set:              set,
		FoundDist:        -1,
		MatchingVertices: bitvec.New(g.NumVertices()),
		Solutions:        make([]*core.Solution, set.Count()),
	}
	freq, cache := opts.recycling(g)
	mcs := MaxCandidateSetDist(e, t)
	candidate := mcs.toCoreState()
	if opts.Rebalance {
		e.SetOwners(BalancedOwners(candidate.VertexBits(), e.cfg.Ranks))
	}
	satisfied := make([]bool, g.NumVertices())

	vm := &res.VerifyMetrics
	for dist := 0; dist <= set.MaxDist; dist++ {
		start := time.Now()
		found := false
		levelVerts := bitvec.New(g.NumVertices())
		var labels int64
		for _, pi := range set.At(dist) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			sol := e.searchPrototypeDist(ctx, candidate, set.Protos[pi].Template, freq, cache, satisfied, opts, vm)
			sol.Proto = pi
			res.PrototypesSearched++
			res.Solutions[pi] = sol
			if sol.Verts.Any() {
				found = true
				levelVerts.Or(sol.Verts)
				labels += int64(sol.Verts.Count())
			}
		}
		res.Levels = append(res.Levels, core.LevelStats{
			Dist:            dist,
			Prototypes:      set.CountAt(dist),
			ActiveVertices:  levelVerts.Count(),
			LabelsGenerated: labels,
			Duration:        time.Since(start),
		})
		if found {
			res.FoundDist = dist
			res.MatchingVertices = levelVerts
			break
		}
	}
	e.foldFaultMetrics(&res.VerifyMetrics)
	return res, nil
}
