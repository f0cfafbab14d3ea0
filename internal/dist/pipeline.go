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
// knob. The embedded fields mean what they mean in core; the engine computes
// its own candidate set, and the core kernels it calls back into (the
// gather-and-finalize step) run on the calling goroutine. Budget charging rides the core probes of the
// finalization phase plus the checks between distributed phases, and
// SharedCache replaces the run's private core.Cache. The fields this engine
// cannot honour are rejected at the entry point, see unsupported.
type Options struct {
	core.Config
	// Rebalance reshuffles active vertices evenly across ranks after
	// candidate-set generation and between edit-distance levels (Fig. 9a).
	Rebalance bool
}

// DefaultOptions enables every optimization for edit-distance k.
func DefaultOptions(k int) Options {
	return Options{Config: core.DefaultConfig(k), Rebalance: true}
}

// unsupported names the first core.Config field set in opts that the
// distributed engine has no implementation for: the traversals always span
// the whole graph (Restrict), and the private cache stays unbounded
// (CacheBytes): ranks record into it concurrently, so LRU eviction order —
// and with it which walks are recycled and the message counts — would
// depend on scheduling. A SharedCache carries its own cap, so there the
// field is ignored exactly as in core.
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
func (opts *Options) recycling(g *graph.Graph) (constraint.LabelFreq, *core.Cache) {
	var freq constraint.LabelFreq
	if opts.FrequencyOrdering {
		freq = core.SearchFrequencies(g)
	}
	var cache *core.Cache
	if opts.WorkRecycling {
		cache = opts.SharedCache
		if cache == nil {
			cache = core.NewCache(g.NumVertices())
		}
	}
	return freq, cache
}

// Run executes the bottom-up approximate-matching pipeline on the
// distributed engine: distributed candidate-set generation, distributed
// LCC/NLCC pruning per prototype, then exact finalization of each pruned
// (small) subgraph. Rho, Solutions and the levels' counts are bit-exact with
// core.Run's (differential-tested); Metrics counts the finalization work (the
// gather-and-verify-on-a-small-deployment step) and the compactions.
func Run(e *Engine, t *pattern.Template, opts Options) (*core.Result, error) {
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
func RunContext(ctx context.Context, e *Engine, t *pattern.Template, opts Options) (*core.Result, error) {
	if err := opts.unsupported(); err != nil {
		return nil, err
	}
	ctx = opts.withBudget(ctx)
	var res *core.Result
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

func run(ctx context.Context, e *Engine, t *pattern.Template, opts Options) (*core.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g := e.Graph()
	set, err := prototype.Generate(t, opts.EditDistance)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	res := &core.Result{
		Graph:     g,
		Template:  t,
		Set:       set,
		Rho:       bitvec.NewMatrix(g.NumVertices(), set.Count()),
		Solutions: make([]*core.Solution, set.Count()),
	}
	freq, cache := opts.recycling(g)

	// Candidate-set generation runs under the budget too; exhaustion there
	// yields a Partial result with zero completed levels (Candidate nil).
	if cerr := func() (err error) {
		defer core.RecoverCancel(&err)
		res.Candidate = MaxCandidateSetDist(e, t).toCoreState()
		return nil
	}(); cerr != nil {
		if errors.Is(cerr, core.ErrBudgetExhausted) {
			return res.FinishPartial(cerr)
		}
		return nil, cerr
	}

	level := res.Candidate
	satisfied := make([]bool, g.NumVertices())
	for dist := set.MaxDist; dist >= 0; dist-- {
		next, lerr := runLevel(ctx, e, res, level, dist, freq, cache, satisfied, opts)
		if lerr != nil {
			if errors.Is(lerr, core.ErrBudgetExhausted) {
				return res.FinishPartial(lerr)
			}
			return nil, lerr
		}
		level = next
	}
	return res, nil
}

// runLevel searches one edit-distance level the way core's level loop does:
// compact the level state, search every prototype, and commit through
// core.Result.CommitLevel only once the whole level completed, so a budget
// abort mid-level keeps the Partial contract (committed levels are always
// whole, exact levels). It returns the next level's containment state.
func runLevel(ctx context.Context, e *Engine, res *core.Result, level *core.State, dist int, freq constraint.LabelFreq, cache *core.Cache, satisfied []bool, opts Options) (next *core.State, err error) {
	defer core.RecoverCancel(&err)
	cc := core.NewCancelCheck(ctx)
	start := time.Now()
	frac := core.ActiveFraction(level)
	state := core.CompactState(level, &res.Metrics, cc)
	if opts.Rebalance {
		e.SetOwners(BalancedOwners(level.VertexBits(), e.cfg.Ranks))
	}
	ids := res.Set.At(dist)
	sols := make([]*core.Solution, len(ids))
	for i, pi := range ids {
		// The containment rule only covers prototypes derivable into the
		// previous level; a childless one searches the full candidate set.
		from := state
		if dist < res.Set.MaxDist && len(res.Set.Protos[pi].Children) == 0 {
			from = res.Candidate
		}
		sols[i] = e.searchPrototype(ctx, from, res.Set.Protos[pi].Template, freq, cache, satisfied, opts.CountMatches, &res.Metrics)
		sols[i].Proto = pi
	}
	// Finalization probes release their tails without polling; a level
	// that overran the budget only there must not commit.
	cc.Check()
	lv := core.LevelStats{Dist: dist, Duration: time.Since(start), ActiveFraction: frac, Compacted: state.View() != nil}
	return res.CommitLevel(sols, lv, opts.LabelPairRefinement, cc), nil
}

// searchPrototype runs the distributed Alg. 2 for one prototype template
// from the given state: distributed LCC and NLCC pruning, then the pruned
// subgraph is gathered, compacted (distributed pruning typically leaves a
// small active fraction) and finalized exactly — the in-process analogue of
// reloading the pruned graph on a small deployment (§4). cache may be nil. A
// fired ctx aborts with a cancellation panic (recovered at the RunContext
// boundary).
func (e *Engine) searchPrototype(ctx context.Context, from *core.State, t *pattern.Template, freq constraint.LabelFreq, cache *core.Cache, satisfied []bool, count bool, m *core.Metrics) *core.Solution {
	cc := core.NewCancelCheck(ctx)
	cc.Check()
	ds := fromCoreState(e, from)
	ds.initOmega(t)
	ds.lccDist(t)

	for _, w := range constraint.Plan(t, freq, int64(e.g.NumVertices()), e.g.AvgDegree()) {
		cc.Check()
		if ds.nlccDist(t, w, satisfied, cache) {
			ds.lccDist(t)
		}
	}
	cs := core.CompactState(ds.toCoreState(), m, cc)
	return core.FinalizeSolution(ctx, cs, t, count, m)
}
