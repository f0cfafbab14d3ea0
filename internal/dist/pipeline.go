package dist

import (
	"context"
	"errors"
	"fmt"
	"time"

	"approxmatch/internal/bitvec"
	"approxmatch/internal/constraint"
	"approxmatch/internal/core"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
	"approxmatch/internal/prototype"
)

// Options are the pipeline's core.Config plus the distributed engine's own
// two knobs. The embedded fields mean what they mean in core, except Workers,
// which has no effect here: the engine computes its own candidate set, and
// the core kernels it calls back into (the gather-and-finalize step) run on
// the calling goroutine. CompactBelow also compacts the gathered
// per-prototype subgraphs and lets rank repartitioning walk the compacted
// vertex list, Budget charging rides the core probes of the finalization
// phase plus the checks between distributed phases, and SharedCache replaces
// the run's private distCache. The fields this engine cannot honour are
// rejected at the entry points, see unsupported.
type Options struct {
	core.Config
	// Rebalance reshuffles active vertices evenly across ranks after
	// candidate-set generation and between edit-distance levels (Fig. 9a).
	Rebalance bool
	// ShrinkToRanks, when positive and smaller than the engine's rank
	// count, relaunches the search on that many ranks once the candidate
	// set is pruned — §4's "reload on the same or fewer processors". The
	// remaining ranks idle (in a real deployment they would be released).
	ShrinkToRanks int
}

// DefaultOptions enables every optimization for edit-distance k.
func DefaultOptions(k int) Options {
	return Options{Config: core.DefaultConfig(k), Rebalance: true}
}

// unsupported names the first core.Config field set in opts that the
// distributed engine has no implementation for: the traversals always span
// the whole graph (Restrict), and the private distCache has no eviction to
// cap (CacheBytes; a SharedCache carries its own cap, so there the field is
// ignored exactly as in core).
func (opts *Options) unsupported() error {
	field := ""
	switch {
	case opts.Restrict != nil:
		field = "Restrict"
	case opts.CacheBytes != 0 && opts.SharedCache == nil:
		field = "CacheBytes"
	default:
		return nil
	}
	return fmt.Errorf("dist: Options.%s is not supported by the distributed engine", field)
}

// withBudget applies opts.Budget to ctx unless the caller already attached
// one (core.WithBudget on the context takes precedence, as in core).
func (opts *Options) withBudget(ctx context.Context) context.Context {
	if core.BudgetFromContext(ctx) != nil {
		return ctx
	}
	return core.WithBudget(ctx, opts.Budget)
}

// recycling builds a run's label-frequency table and κ cache from opts.
func (opts *Options) recycling(g *graph.Graph) (constraint.LabelFreq, recycler) {
	var freq constraint.LabelFreq
	if opts.FrequencyOrdering {
		freq = g.LabelFrequencies()
		freq[pattern.Wildcard] = int64(g.NumVertices())
	}
	var cache recycler
	if opts.WorkRecycling {
		if opts.SharedCache != nil {
			cache = sharedRecycler{opts.SharedCache}
		} else {
			cache = newDistCache(g.NumVertices())
		}
	}
	return freq, cache
}

// Result is the distributed run's output; Solutions and Rho are bit-exact
// with the sequential engine's (differential-tested).
type Result struct {
	Set       *prototype.Set
	Rho       *bitvec.Matrix
	Solutions []*core.Solution
	Candidate *core.State
	// VerifyMetrics counts the sequential finalization work (the
	// gather-and-verify-on-a-small-deployment step).
	VerifyMetrics core.Metrics
	Levels        []core.LevelStats
	// Partial is core.Result.Partial: the run's budget was exhausted
	// before all levels completed. Levels with Complete set are exact;
	// unfinished prototypes' Rho columns and Solutions are unknown.
	Partial bool
}

// Run executes the bottom-up approximate-matching pipeline on the
// distributed engine: distributed candidate-set generation, distributed
// LCC/NLCC pruning per prototype, then exact finalization of each pruned
// (small) subgraph.
func Run(e *Engine, t *pattern.Template, opts Options) (*Result, error) {
	return RunContext(context.Background(), e, t, opts)
}

// RunContext is Run honoring ctx: the context is checked between levels,
// prototypes and pruning walks, and inside the sequential finalization
// phase, so a fired deadline or cancellation stops the distributed run and
// returns ctx.Err(). When ctx never fires, the results are identical to
// Run's.
//
// When a budget governs the run (Options.Budget or core.WithBudget on ctx)
// and is exhausted mid-pipeline, RunContext returns BOTH a non-nil Partial
// result and an error matching core.ErrBudgetExhausted, exactly like
// core.RunContext.
func RunContext(ctx context.Context, e *Engine, t *pattern.Template, opts Options) (*Result, error) {
	if err := opts.unsupported(); err != nil {
		return nil, err
	}
	ctx = opts.withBudget(ctx)
	var res *Result
	err := func() (err error) {
		defer core.RecoverCancel(&err)
		res, err = run(ctx, e, t, opts)
		return err
	}()
	if err != nil && (res == nil || !res.Partial) {
		return nil, err
	}
	return res, err
}

func run(ctx context.Context, e *Engine, t *pattern.Template, opts Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g := e.Graph()
	set, err := prototype.Generate(t, opts.EditDistance)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	res := &Result{
		Set:       set,
		Rho:       bitvec.NewMatrix(g.NumVertices(), set.Count()),
		Solutions: make([]*core.Solution, set.Count()),
	}
	freq, cache := opts.recycling(g)

	// Candidate-set generation runs under the budget too; exhaustion there
	// yields a Partial result with zero completed levels (Candidate nil).
	if cerr := func() (err error) {
		defer core.RecoverCancel(&err)
		mcs := MaxCandidateSetDist(e, t)
		res.Candidate = mcs.toCoreState()
		return nil
	}(); cerr != nil {
		if errors.Is(cerr, core.ErrBudgetExhausted) {
			return finishPartialDist(res, cerr)
		}
		return nil, cerr
	}
	activeRanks := e.cfg.Ranks
	if opts.ShrinkToRanks > 0 && opts.ShrinkToRanks < activeRanks {
		activeRanks = opts.ShrinkToRanks
	}
	if opts.Rebalance || activeRanks < e.cfg.Ranks {
		e.SetOwners(BalancedOwners(res.Candidate.VertexBits(), activeRanks))
	}

	level := res.Candidate
	levelFrac := core.ActiveFraction(level)
	satisfied := make([]bool, g.NumVertices())
	for dist := set.MaxDist; dist >= 0; dist-- {
		next, nextFrac, lerr := runLevelDist(ctx, e, res, level, levelFrac, dist, activeRanks, freq, cache, satisfied, opts)
		if lerr != nil {
			if errors.Is(lerr, core.ErrBudgetExhausted) {
				return finishPartialDist(res, lerr)
			}
			return nil, lerr
		}
		level, levelFrac = next, nextFrac
	}
	return res, nil
}

// runLevelDist searches one edit-distance level and commits its solutions,
// Rho columns and stats into res only once the whole level completed —
// mirroring the sequential engine's commit-after-complete structure so a
// budget abort mid-level keeps the Partial contract (committed levels are
// always whole, exact levels).
func runLevelDist(ctx context.Context, e *Engine, res *Result, level *core.State, levelFrac float64, dist, activeRanks int, freq constraint.LabelFreq, cache recycler, satisfied []bool, opts Options) (next *core.State, nextFrac float64, err error) {
	defer core.RecoverCancel(&err)
	cc := core.NewCancelCheck(ctx)
	set := res.Set
	g := e.Graph()
	start := time.Now()
	ids := set.At(dist)
	sols := make([]*core.Solution, 0, len(ids))
	for _, pi := range ids {
		if cerr := ctx.Err(); cerr != nil {
			return nil, 0, cerr
		}
		searchState := level
		if dist < set.MaxDist && len(set.Protos[pi].Children) == 0 {
			searchState = res.Candidate
		}
		sol := e.searchPrototypeDist(ctx, searchState, set.Protos[pi].Template, freq, cache, satisfied, opts, &res.VerifyMetrics)
		sol.Proto = pi
		sols = append(sols, sol)
	}
	// Finalization probes release their tails without polling; a level
	// that overran the budget only there must not commit.
	cc.Check()
	unionVerts := bitvec.New(g.NumVertices())
	unionEdges := bitvec.New(g.NumDirectedEdges())
	var labels int64
	for _, sol := range sols {
		res.Solutions[sol.Proto] = sol
		unionVerts.Or(sol.Verts)
		unionEdges.Or(sol.Edges)
		sol.Verts.ForEach(func(v int) {
			res.Rho.Set(v, sol.Proto)
			labels++
		})
	}
	res.Levels = append(res.Levels, core.LevelStats{
		Dist:            dist,
		Prototypes:      len(ids),
		ActiveVertices:  unionVerts.Count(),
		LabelsGenerated: labels,
		Duration:        time.Since(start),
		ActiveFraction:  levelFrac,
		Compacted:       level.View() != nil,
		Complete:        true,
	})
	if dist > 0 {
		next = containmentState(g, set, res.Candidate, unionVerts, unionEdges, dist, opts.LabelPairRefinement)
		nextFrac = core.ActiveFraction(next)
		next = core.CompactStateBudgeted(next, opts.CompactBelow, &res.VerifyMetrics, cc)
		if opts.Rebalance || activeRanks < e.cfg.Ranks {
			e.SetOwners(balancedOwnersFor(next, activeRanks))
		}
	}
	return next, nextFrac, nil
}

// finishPartialDist marks res partial and appends Complete=false
// placeholders for the unfinished levels.
func finishPartialDist(res *Result, cause error) (*Result, error) {
	res.Partial = true
	next := res.Set.MaxDist
	if n := len(res.Levels); n > 0 {
		next = res.Levels[n-1].Dist - 1
	}
	for dist := next; dist >= 0; dist-- {
		res.Levels = append(res.Levels, core.LevelStats{Dist: dist, Prototypes: res.Set.CountAt(dist)})
	}
	return res, cause
}

// searchPrototypeDist runs the distributed Alg. 2 for one prototype
// template on the given level state. A fired ctx aborts with a cancellation
// panic (recovered at the RunContext / RunTopDownContext boundary).
func (e *Engine) searchPrototypeDist(ctx context.Context, level *core.State, t *pattern.Template, freq constraint.LabelFreq, cache recycler, satisfied []bool, opts Options, vm *core.Metrics) *core.Solution {
	cc := core.NewCancelCheck(ctx)
	ds := fromCoreState(e, level)
	ds.initOmega(t)
	ds.lccDist(t)

	pruning, _ := constraint.Generate(t)
	if freq != nil {
		pruning = constraint.OrientAll(t, pruning, freq)
	}
	constraint.OrderWalks(t, pruning, freq)
	for _, w := range pruning {
		cc.Check()
		if ds.nlccDist(t, w, satisfied, cache) {
			ds.lccDist(t)
		}
	}

	// Gather the pruned subgraph, compact it (distributed pruning typically
	// leaves a small active fraction) and finalize exactly — the in-process
	// analogue of reloading the pruned graph on a small deployment (§4).
	cs := ds.toCoreState()
	cs = core.CompactStateBudgeted(cs, opts.CompactBelow, vm, cc)
	return core.FinalizeSolution(ctx, cs, t, opts.CountMatches, vm)
}

// containmentState mirrors the sequential engine's Obs.-1 construction:
// union of the level's solution subgraphs plus candidate edges between
// active vertices whose label pair is removable at this level.
func containmentState(g *graph.Graph, set *prototype.Set, candidate *core.State, unionVerts *bitvec.Vector, unionEdges *bitvec.Vector, dist int, labelPairRefinement bool) *core.State {
	s := core.NewEmptyState(g)
	s.VertexBits().Or(unionVerts)
	s.EdgeBits().Or(unionEdges)

	var pairs *pattern.PairSet
	if labelPairRefinement {
		pairs = set.RemovedLabelPairs(dist)
	}
	s.ForEachActiveVertex(func(v graph.VertexID) {
		ns := g.Neighbors(v)
		base := int(g.AdjOffset(v))
		lv := g.Label(v)
		for i, u := range ns {
			if !candidate.EdgeBits().Get(base+i) || !unionVerts.Get(int(u)) {
				continue
			}
			if pairs != nil && !pairs.Matches(lv, g.Label(u)) {
				continue
			}
			s.EdgeBits().Set(base + i)
		}
	})
	return s
}
