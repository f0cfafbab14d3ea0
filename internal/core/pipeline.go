package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"approxmatch/internal/bitvec"
	"approxmatch/internal/constraint"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
	"approxmatch/internal/prototype"
)

// Config controls the pipeline's optimizations; every field corresponds to a
// design choice the paper evaluates, so each can be toggled for ablation.
type Config struct {
	// EditDistance is k, the maximum number of edge deletions.
	EditDistance int
	// WorkRecycling enables the NLCC result cache shared across prototypes
	// (Obs. 2; Fig. 8 scenario Y).
	WorkRecycling bool
	// FrequencyOrdering enables label-frequency-based constraint ordering
	// and walk orientation (§5.4, Fig. 9b top).
	FrequencyOrdering bool
	// LabelPairRefinement keeps, in the containment step, only candidate
	// edges whose label pair matches a removable template edge instead of
	// every candidate edge between active vertices (Obs. 1's edge bound).
	LabelPairRefinement bool
	// CountMatches computes per-prototype match counts during the search.
	CountMatches bool
	// Workers is ignored: every kernel runs on the goroutine of its
	// prototype search, and a run takes its parallelism from the level width
	// (RunParallelContext).
	//
	// Deprecated: set nothing; the field goes once no caller names it.
	Workers int
	// Budget bounds the run's work, auxiliary memory and wall time; the
	// zero value is unlimited. On exhaustion the bottom-up pipeline stops
	// between edit-distance levels and returns a Partial result alongside an
	// ErrBudgetExhausted error — completed levels stay exact, unfinished
	// ones are reported unknown (see Result.Partial). A budget already
	// attached to the context via WithBudget takes precedence.
	Budget Budget
	// CacheBytes caps the NLCC work-recycling cache's memory; 0 is
	// unbounded (today's behavior). When full, least-recently-used entries
	// are evicted — eviction costs recomputation only, never correctness.
	CacheBytes int64
	// SharedCache, when non-nil, replaces the run's private NLCC
	// work-recycling cache with a caller-owned store that outlives the run,
	// so constraint walks recycle across queries, not just across
	// prototypes of one query (Obs. 2 lifted over the query boundary).
	// Walk IDs are label-canonical, so foreign entries only ever describe
	// the same constraint; in any case cache content is correctness-neutral
	// — the exact verification phase fixes precision, eviction only costs
	// recomputation. Requires WorkRecycling; the store must have been built
	// for the same background graph (vertex-id space). CacheBytes is
	// ignored — the store carries its own cap.
	SharedCache *Cache
	// Restrict, when non-nil, seeds the pipeline's active set from the
	// given vertex mask (length NumVertices) instead of the full graph: the
	// run computes exactly the matches of the subgraph induced by the
	// mask's vertices. The incremental maintenance path (RunIncrementalContext)
	// uses this to confine re-matching to the dirty region around a graph
	// delta; a nil Restrict is today's full-graph behavior, bit-identical
	// counters included.
	Restrict *bitvec.Vector
	// kernelOpts switches the backtracking kernels' redundancy eliminations
	// off. Only this package's tests set it, as an oracle for the
	// eliminations' result invariance; the zero value runs them all.
	kernelOpts kernelOpts
	// compactOverride replaces the compaction threshold compactBelow when
	// positive and switches compaction off when negative. Only this
	// package's tests set it, as the off and forced legs of the
	// compaction-invisibility differentials; the zero value compacts at
	// compactBelow.
	compactOverride float64
}

// DefaultConfig returns the fully optimized configuration for edit-distance
// k.
func DefaultConfig(k int) Config {
	return Config{
		EditDistance:        k,
		WorkRecycling:       true,
		FrequencyOrdering:   true,
		LabelPairRefinement: true,
	}
}

// kernel returns the backtracking kernels' option set.
func (c *Config) kernel() kernelOpts { return c.kernelOpts }

// Solution is the solution subgraph G*_{δ,p} of one prototype (Def. 2):
// exactly the vertices and directed edge slots participating in at least one
// exact match, plus the match count when requested.
type Solution struct {
	// Proto is the prototype index within the Set.
	Proto int
	// Verts has a bit per background vertex.
	Verts *bitvec.Vector
	// Edges has a bit per directed adjacency slot.
	Edges *bitvec.Vector
	// MatchCount is the number of distinct matches, or -1 when not counted.
	MatchCount int64
}

// Result is the output of a pipeline run.
type Result struct {
	// Graph and Template echo the inputs.
	Graph    *graph.Graph
	Template *pattern.Template
	// Set is the generated prototype set P_k.
	Set *prototype.Set
	// Rho is the per-vertex match vector matrix: Rho[v][p] is set when v
	// participates in at least one match of prototype p (Def. 3).
	Rho *bitvec.Matrix
	// Solutions holds one Solution per prototype, indexed like Set.Protos.
	Solutions []*Solution
	// Candidate is the maximum candidate set M*.
	Candidate *State
	// Metrics aggregates the logical message counts.
	Metrics Metrics
	// Levels records per-edit-distance statistics, bottom-up order. On a
	// partial run it covers every level: completed ones with their real
	// stats and Complete set, unfinished ones as Complete=false
	// placeholders.
	Levels []LevelStats
	// Partial reports that the run's Budget was exhausted before all levels
	// completed. Per the containment rule (Obs. 1) each completed level is
	// computed only from the previous completed level, so the prototype
	// columns of levels with Complete set are exact — bit-identical to an
	// unbudgeted run's, 100% precision and recall — while the columns of
	// unfinished prototypes are all-zero and must be treated as unknown,
	// not as non-matches. Candidate may be nil when the budget died during
	// candidate-set generation.
	Partial bool
}

// CompletedLevels returns how many edit-distance levels finished.
func (r *Result) CompletedLevels() int {
	n := 0
	for _, l := range r.Levels {
		if l.Complete {
			n++
		}
	}
	return n
}

// engine carries the per-run machinery shared by the bottom-up and top-down
// modes.
type engine struct {
	g       *graph.Graph
	cfg     Config
	set     *prototype.Set
	cache   *Cache
	freq    constraint.LabelFreq
	metrics Metrics
	// cc is the run's root cancellation probe (nil when the run's context
	// can never fire and carries no budget). It serves the coordinator
	// goroutine; every level work item Forks its own.
	cc *CancelCheck
	// walks caches, per prototype index, the oriented/ordered pruning
	// walks and the local profile.
	walks    map[int][]*constraint.Walk
	profiles map[int]*localProfile
}

func newEngine(g *graph.Graph, set *prototype.Set, cfg Config, cc *CancelCheck) *engine {
	e := &engine{
		g:        g,
		cfg:      cfg,
		set:      set,
		cc:       cc,
		walks:    make(map[int][]*constraint.Walk),
		profiles: make(map[int]*localProfile),
	}
	if cfg.WorkRecycling {
		if cfg.SharedCache != nil {
			e.cache = cfg.SharedCache
		} else {
			e.cache = NewCacheBytes(g.NumVertices(), cfg.CacheBytes)
		}
	}
	if cfg.FrequencyOrdering {
		e.freq = SearchFrequencies(g)
	}
	return e
}

func (e *engine) walksFor(pi int) []*constraint.Walk {
	if ws, ok := e.walks[pi]; ok {
		return ws
	}
	ws := constraint.Plan(e.set.Protos[pi].Template, e.freq, int64(e.g.NumVertices()), e.g.AvgDegree())
	e.walks[pi] = ws
	return ws
}

func (e *engine) profileFor(pi int) *localProfile {
	if p, ok := e.profiles[pi]; ok {
		return p
	}
	p := buildLocalProfile(e.set.Protos[pi].Template)
	e.profiles[pi] = p
	return p
}

// cleanEdges returns the active-edge vector restricted to slots whose both
// endpoints are active.
func cleanEdges(s *State) *bitvec.Vector {
	out := bitvec.New(s.g.NumDirectedEdges())
	s.ForEachActiveVertex(func(v graph.VertexID) {
		ns, base, ws := s.slotScan(v)
		for ws.Next() {
			for w := ws.Word; w != 0; w &= w - 1 {
				if slot := ws.Base + trailingZeros(w); s.verts.Get(int(ns[slot-base])) {
					out.Set(slot)
				}
			}
		}
	})
	return out
}

// Run is RunContext with a background context — the shorthand tests and
// experiments use.
func Run(g *graph.Graph, t *pattern.Template, cfg Config) (*Result, error) {
	return RunContext(context.Background(), g, t, cfg)
}

// RunContext is RunParallelContext at width 1: one prototype at a time,
// searched on the calling goroutine.
func RunContext(ctx context.Context, g *graph.Graph, t *pattern.Template, cfg Config) (*Result, error) {
	return RunParallelContext(ctx, g, t, cfg, 1)
}

// RunParallelContext executes the bottom-up approximate-matching pipeline
// (Alg. 1): it generates P_k, computes the maximum candidate set, then
// iterates from the furthest edit distance toward 0, searching each
// prototype within the union of the previous level's solution subgraphs per
// the containment rule. parallelism is the loop's width (§4, "Multi-level
// Parallelism" — Fig. 8's scenario Z): up to that many prototypes of a level
// are searched concurrently on replicas of the level state, sharing one
// work-recycling cache. Rho, Solutions and match counts are bit-identical at
// every width.
//
// Cancellation and deadline expiry are observed by cheap periodic probes
// inside the candidate-set fixpoint, the LCC fixpoint, the NLCC walk loop
// and the verification phase — every prototype search carries its own — and
// the run returns ctx.Err(). A panic inside a prototype search is returned
// as a *PanicError instead of crashing the process.
//
// When a budget governs the run (Config.Budget or WithBudget on ctx) and it
// is exhausted mid-pipeline, the call returns BOTH a non-nil partial result
// and a non-nil error matching ErrBudgetExhausted — check Result.Partial /
// errors.Is before discarding either.
func RunParallelContext(ctx context.Context, g *graph.Graph, t *pattern.Template, cfg Config, parallelism int) (*Result, error) {
	return guardedRun(ctx, cfg.Budget, func(cc *CancelCheck) (*Result, error) {
		return runLevels(cc, g, t, cfg, parallelism)
	})
}

func runLevels(cc *CancelCheck, g *graph.Graph, t *pattern.Template, cfg Config, width int) (*Result, error) {
	if cfg.Restrict != nil && cfg.Restrict.Len() != g.NumVertices() {
		return nil, fmt.Errorf("core: restrict mask has %d bits for %d vertices",
			cfg.Restrict.Len(), g.NumVertices())
	}
	set, err := prototype.Generate(t, cfg.EditDistance)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	e := newEngine(g, set, cfg, cc)

	res := &Result{
		Graph:     g,
		Template:  t,
		Set:       set,
		Rho:       bitvec.NewMatrix(g.NumVertices(), set.Count()),
		Solutions: make([]*Solution, set.Count()),
	}
	// Candidate-set generation runs under the budget too; exhaustion there
	// yields a Partial result with zero completed levels (Candidate nil).
	if err := func() (err error) {
		defer recoverBudgetAbort(&err)
		res.Candidate = maxCandidateSet(g, t, e.cfg.Restrict, cc, &e.metrics)
		return nil
	}(); err != nil {
		return e.finishPartial(res, err)
	}

	level := res.Candidate
	for dist := set.MaxDist; dist >= 0; dist-- {
		next, err := e.runLevel(res, level, dist, width)
		if err != nil {
			if errors.Is(err, ErrBudgetExhausted) {
				return e.finishPartial(res, err)
			}
			return nil, err
		}
		level = next
	}
	e.foldCache()
	res.Metrics = e.metrics
	return res, nil
}

// testHookPrototypeSearch, when set, runs at the start of every prototype
// search of a level — the seam the panic-isolation tests use to inject a
// worker panic into a live query.
var testHookPrototypeSearch func(proto int)

// runLevel searches one edit-distance level of the bottom-up pipeline, up
// to width prototypes at a time, and commits the results — solutions, Rho
// columns, level stats and the next level's containment state — only once
// the whole level has completed. A budget abort mid-level therefore leaves
// res exactly as it was before the level started (the level's half-computed
// solutions are discarded), which is what makes the Partial contract
// airtight: committed levels are always whole levels.
func (e *engine) runLevel(res *Result, level *State, dist, width int) (next *State, err error) {
	defer recoverBudgetAbort(&err)
	e.cc.Check()
	start := time.Now()
	frac := ActiveFraction(level)
	state := e.compact(level)
	sols, err := e.searchLevel(state, res.Candidate, res.Set.At(dist), dist, width)
	if err != nil {
		return nil, err
	}
	lv := LevelStats{Dist: dist, Duration: time.Since(start), ActiveFraction: frac, Compacted: state.View() != nil}
	return res.CommitLevel(sols, lv, e.cfg.LabelPairRefinement, e.cc), nil
}

// searchLevel searches the prototypes ids of level dist, up to width at a
// time, on state — a childless prototype (see startsFromLevel) on cand — and
// returns their solutions, index-aligned with ids; it is the search half of
// both the bottom-up and the top-down level. It returns the first abort — a
// fired context, a spent budget or a *PanicError — instead of solutions.
//
// The level runs as work items (planLevel), each on one goroutine with its
// own forked probe, released when the item returns; every search has its
// own Metrics, folded in prototype order once they all have — so neither the
// budget charge nor the counters depend on the width. It must be called from
// the coordinator goroutine.
func (e *engine) searchLevel(state, cand *State, ids []int, dist, width int) ([]*Solution, error) {
	// Plan, and build the level's walks and profiles, before any search
	// launches: the engine metrics and its lazy maps are not synchronized.
	for _, pi := range ids {
		e.walksFor(pi)
		e.profileFor(pi)
	}
	items := e.planLevel(state, ids, dist, width)
	sols := make([]*Solution, len(ids))
	metrics := make([]Metrics, len(ids))
	abortErr := forEachBounded(len(items), width, func(it int) {
		cc := e.cc.Fork()
		defer cc.Release()
		e.searchItem(state, cand, dist, ids, items[it], cc, sols, metrics)
	})
	// Fold the searches' counters before any abort: work actually performed
	// must reach the caller (and /metrics) even when the level dies.
	for idx := range metrics {
		e.metrics.Add(&metrics[idx])
	}
	if abortErr != nil {
		return nil, abortErr
	}
	// The searches' released ticks are on the tracker now; a level that
	// overran the budget only in its probes' tails must not commit.
	e.cc.Check()
	return sols, nil
}

// levelItem is one unit of a level's work: positions into the level's
// prototype ids, increasing, searched one after the other on one goroutine.
// The positions in lanes (a subsequence of idx) run their first LCC fixpoint
// together, one lane each of one lccBlock; the others run searchTemplateOn.
type levelItem struct {
	idx, lanes []int
}

// planLevel splits a level into work items. The prototypes that start from
// the level state are split into blockCount(…, width) blocks of consecutive
// positions, one item each, when the blocks' memory fits the budget; every
// other case — too few lanes, a declined charge — makes one item per
// prototype, each a plain searchTemplateOn. An item spans every position from
// its first lane to the next item's, so at width 1 the searches keep the
// level's order, and with it the work-recycling cache's hits.
func (e *engine) planLevel(state *State, ids []int, dist, width int) []levelItem {
	var eligible []int
	for idx, pi := range ids {
		if e.startsFromLevel(pi, dist) {
			eligible = append(eligible, idx)
		}
	}
	nb := blockCount(len(eligible), width)
	if nb > 0 && !e.cc.TryChargeBytes(int64(nb)*laneBlockBytes(state.g, e.set.Base.NumVertices())) {
		e.metrics.LCCBlocksDeclined++
		nb = 0
	}
	if nb == 0 {
		items := make([]levelItem, len(ids))
		for idx := range items {
			items[idx].idx = []int{idx}
		}
		return items
	}
	items := make([]levelItem, nb)
	for j := range items {
		lo, hi := j*len(eligible)/nb, (j+1)*len(eligible)/nb
		from, to := eligible[lo], len(ids)
		if j == 0 {
			from = 0
		}
		if hi < len(eligible) {
			to = eligible[hi]
		}
		items[j].lanes = eligible[lo:hi]
		for idx := from; idx < to; idx++ {
			items[j].idx = append(items[j].idx, idx)
		}
	}
	return items
}

// startsFromLevel reports whether prototype pi searches the level state. The
// containment rule only covers prototypes derivable into the previous level:
// a (rare) childless prototype — every legal removal disconnects it — must be
// searched on the full candidate set.
func (e *engine) startsFromLevel(pi, dist int) bool {
	return dist == e.set.MaxDist || len(e.set.Protos[pi].Children) > 0
}

// searchItem runs one levelItem's searches on the calling goroutine, the
// item's lccBlock when its first lane comes up, and stores each search's
// solution and counters at its position.
func (e *engine) searchItem(state, cand *State, dist int, ids []int, item levelItem, cc *CancelCheck, sols []*Solution, metrics []Metrics) {
	var blk *laneBlock
	lane := 0
	for _, idx := range item.idx {
		pi := ids[idx]
		if h := testHookPrototypeSearch; h != nil {
			h(pi)
		}
		t, m := e.set.Protos[pi].Template, &metrics[idx]
		var sol *Solution
		if lane < len(item.lanes) && item.lanes[lane] == idx {
			if blk == nil {
				profs := make([]*localProfile, len(item.lanes))
				ms := make([]*Metrics, len(item.lanes))
				for i, at := range item.lanes {
					profs[i], ms[i] = e.profiles[ids[at]], &metrics[at]
				}
				blk = lccBlock(state, profs, cc, ms)
			}
			chargeSearch(state, cc, m)
			s, omega := blk.unpack(lane)
			if lane++; lane == len(item.lanes) {
				blk = nil // the block's memory can go before the last search runs
			}
			sol = finishSearch(s, omega, t, e.profiles[pi], e.walks[pi], e.cache, cc, e.cfg.CountMatches, m, e.cfg.kernel())
		} else {
			from := state
			if !e.startsFromLevel(pi, dist) {
				from = cand
			}
			sol = searchTemplateOn(from, t, e.profiles[pi], e.walks[pi], e.cache, cc, e.cfg.CountMatches, m, e.cfg.kernel())
		}
		sol.Proto = pi
		sols[idx] = sol
	}
}

// forEachBounded calls fn(0..n-1) — on the calling goroutine when width is
// 1, on min(width, n) worker goroutines otherwise — and returns the first
// abort. A fired context or exhausted budget unwinds fn via the
// pipelineAbort panic; its error is captured and no further index is
// started (searches already in flight abort on their own probes within one
// check interval). Any other panic is a bug in fn: it is converted to a
// *PanicError so one poisoned query fails with an error instead of killing
// the process.
func forEachBounded(n, width int, fn func(idx int)) error {
	var mu sync.Mutex
	var first error
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return first != nil
	}
	guarded := func(idx int) {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			var ferr error
			if a, ok := r.(pipelineAbort); ok {
				ferr = a.err
			} else {
				ferr = &PanicError{Val: r, Stack: debug.Stack()}
			}
			mu.Lock()
			if first == nil {
				first = ferr
			}
			mu.Unlock()
		}()
		fn(idx)
	}
	if width > n {
		width = n
	}
	if width <= 1 {
		for idx := 0; idx < n && !failed(); idx++ {
			guarded(idx)
		}
		return first
	}
	var claimed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed() {
				idx := int(claimed.Add(1)) - 1
				if idx >= n {
					return
				}
				guarded(idx)
			}
		}()
	}
	wg.Wait()
	return first
}

// CommitLevel publishes a completed edit-distance level into r — the level
// loop's one commit, shared by this package's engine and the distributed
// runtime's. It stores the level's solutions, sets their Rho columns and
// appends lv completed with the level's counts (the caller fills Dist,
// Duration, ActiveFraction and Compacted). It returns the next level's search
// state by the containment rule (Obs. 1), charged against cc's budget, or nil
// at δ=0. refine is Config.LabelPairRefinement.
func (r *Result) CommitLevel(sols []*Solution, lv LevelStats, refine bool, cc *CancelCheck) *State {
	unionVerts := bitvec.New(r.Graph.NumVertices())
	unionEdges := bitvec.New(r.Graph.NumDirectedEdges())
	for _, sol := range sols {
		r.Solutions[sol.Proto] = sol
		unionVerts.Or(sol.Verts)
		unionEdges.Or(sol.Edges)
		sol.Verts.ForEach(func(v int) {
			r.Rho.Set(v, sol.Proto)
			lv.LabelsGenerated++
		})
	}
	lv.Prototypes = len(sols)
	lv.ActiveVertices = unionVerts.Count()
	lv.Complete = true
	r.Levels = append(r.Levels, lv)
	if lv.Dist > 0 {
		return r.containmentState(unionVerts, unionEdges, lv.Dist, refine, cc)
	}
	return nil
}

// FinishPartial marks r partial, appends Complete=false placeholders for
// every level that did not finish and returns r together with cause, the
// budget-exhaustion error.
func (r *Result) FinishPartial(cause error) (*Result, error) {
	r.Partial = true
	next := r.Set.MaxDist
	if n := len(r.Levels); n > 0 {
		next = r.Levels[n-1].Dist - 1
	}
	for dist := next; dist >= 0; dist-- {
		r.Levels = append(r.Levels, LevelStats{Dist: dist, Prototypes: r.Set.CountAt(dist)})
	}
	return r, cause
}

// finishPartial folds the metrics gathered so far into res (so /metrics
// accounting survives the abort) and finishes it as a partial result.
func (e *engine) finishPartial(res *Result, cause error) (*Result, error) {
	e.foldCache()
	res.Metrics = e.metrics
	return res.FinishPartial(cause)
}

// foldCache folds the work-recycling cache's eviction count into the run
// metrics; called once per run, on both the full and partial paths. A
// caller-owned SharedCache is skipped: its counters are cumulative across
// queries, so folding them here would double-count every prior query's
// evictions into this run's metrics — the store surfaces its own totals.
func (e *engine) foldCache() {
	if e.cache != nil && e.cache != e.cfg.SharedCache {
		e.metrics.CacheEvictions += e.cache.Evictions()
	}
}

// containmentState builds the search state for level dist-1 from the union
// of level-dist solution subgraphs (Obs. 1): union vertices, union edges,
// plus candidate-set edges between union vertices whose label pair matches
// an edge removable at this level (or every candidate edge when the
// refinement is disabled). The fresh state's bitvecs are charged against
// the run's byte budget.
func (r *Result) containmentState(unionVerts, unionEdges *bitvec.Vector, dist int, refine bool, cc *CancelCheck) *State {
	g := r.Graph
	cc.ChargeBytes(int64(g.NumVertices()+g.NumDirectedEdges()) / 8)
	s := NewEmptyState(g)
	s.verts.Or(unionVerts)
	s.edges.Or(unionEdges)

	var pairs *pattern.PairSet
	if refine {
		pairs = r.Set.RemovedLabelPairs(dist)
	}
	s.ForEachActiveVertex(func(v graph.VertexID) {
		ns := g.Neighbors(v)
		base := int(g.AdjOffset(v))
		lv := g.Label(v)
		for i, u := range ns {
			if !r.Candidate.edges.Get(base+i) || !unionVerts.Get(int(u)) {
				continue
			}
			if pairs != nil && !pairs.Matches(lv, g.Label(u)) {
				continue
			}
			s.edges.Set(base + i)
		}
	})
	return s
}

// MatchVector returns the prototype indices vertex v matches.
func (r *Result) MatchVector(v graph.VertexID) []int {
	var out []int
	r.Rho.RowForEach(int(v), func(c int) { out = append(out, c) })
	return out
}

// UnionVertices returns the vertices participating in at least one match of
// any prototype.
func (r *Result) UnionVertices() *bitvec.Vector {
	out := bitvec.New(r.Graph.NumVertices())
	for _, sol := range r.Solutions {
		if sol != nil {
			out.Or(sol.Verts)
		}
	}
	return out
}

// LabelsGenerated returns the total number of (vertex, prototype) labels.
func (r *Result) LabelsGenerated() int64 {
	var total int64
	for _, l := range r.Levels {
		total += l.LabelsGenerated
	}
	return total
}

// TotalMatchCount sums per-prototype match counts; it returns -1 when the
// run did not count matches.
func (r *Result) TotalMatchCount() int64 {
	var total int64
	for _, sol := range r.Solutions {
		if sol == nil {
			continue
		}
		if sol.MatchCount < 0 {
			return -1
		}
		total += sol.MatchCount
	}
	return total
}

// SolutionFor returns the solution subgraph of prototype pi.
func (r *Result) SolutionFor(pi int) *Solution { return r.Solutions[pi] }

// SolutionState reconstructs a State from a prototype's solution subgraph,
// for enumeration.
func (r *Result) SolutionState(pi int) *State {
	s := NewEmptyState(r.Graph)
	sol := r.Solutions[pi]
	s.verts.Or(sol.Verts)
	s.edges.Or(sol.Edges)
	return s
}

// EnumerateMatches calls fn for every exact match of prototype pi; fn
// returns false to stop. The slice passed to fn is reused. Vertices are
// reported as external ids: on a degree-relabeled graph the kernel's
// internal ids are translated before fn sees them, so enumeration output is
// invariant under relabeling.
func (r *Result) EnumerateMatches(pi int, fn func([]graph.VertexID) bool) {
	s := r.SolutionState(pi)
	t := r.Set.Protos[pi].Template
	omega := initCandidates(s, t)
	var m Metrics
	if !r.Graph.Relabeled() {
		enumerateMatches(s, omega, t, nil, &m, kernelOpts{}, fn)
		return
	}
	ext := make([]graph.VertexID, t.NumVertices())
	enumerateMatches(s, omega, t, nil, &m, kernelOpts{}, func(match []graph.VertexID) bool {
		for i, v := range match {
			ext[i] = r.Graph.ExternalID(v)
		}
		return fn(ext)
	})
}

// CountMatchesOf enumerates and counts matches of prototype pi (independent
// of Config.CountMatches).
func (r *Result) CountMatchesOf(pi int) int64 {
	var count int64
	r.EnumerateMatches(pi, func([]graph.VertexID) bool {
		count++
		return true
	})
	return count
}
