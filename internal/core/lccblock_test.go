package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"approxmatch/internal/bitvec"
	"approxmatch/internal/datagen"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
	"approxmatch/internal/prototype"
)

// blockTemplate builds a dense random template over a small label alphabet
// with wildcards, so its prototypes share neighbour-label groups of
// multiplicity two and more, and — when edgeLabels > 0 — edge labels.
func blockTemplate(rng *rand.Rand, edgeLabels int) *pattern.Template {
	n := 4 + rng.Intn(4)
	ls := make([]pattern.Label, n)
	for i := range ls {
		ls[i] = pattern.Label(rng.Intn(2))
		if rng.Intn(5) == 0 {
			ls[i] = pattern.Wildcard
		}
	}
	have := map[pattern.Edge]bool{}
	var edges []pattern.Edge
	add := func(a, b int) {
		if a > b {
			a, b = b, a
		}
		if e := (pattern.Edge{I: a, J: b}); a != b && !have[e] {
			have[e] = true
			edges = append(edges, e)
		}
	}
	for v := 1; v < n; v++ {
		add(rng.Intn(v), v)
	}
	for i := 0; i < n; i++ {
		add(rng.Intn(n), rng.Intn(n))
	}
	var els []pattern.Label
	if edgeLabels > 0 {
		els = make([]pattern.Label, len(edges))
		for i := range els {
			els[i] = pattern.Wildcard
			if rng.Intn(2) == 0 {
				els[i] = pattern.Label(rng.Intn(edgeLabels))
			}
		}
	}
	t, err := pattern.NewEdgeLabeled(ls, edges, els, nil)
	if err != nil {
		panic(err)
	}
	return t
}

// lccRun is one prototype's first LCC fixpoint as searchTemplateOn runs it.
type lccRun struct {
	s     *State
	omega candidateSet
	m     Metrics
	ticks int64
}

func runLCC(level *State, prof *localProfile) lccRun {
	tracker := NewBudgetTracker(Budget{MaxWork: 1 << 62})
	cc := NewCancelCheck(WithBudgetTracker(context.Background(), tracker))
	r := lccRun{s: level.Clone()}
	r.omega = initCandidates(r.s, prof.Template())
	lcc(r.s, r.omega, prof, cc, &r.m)
	cc.Release()
	r.ticks = tracker.WorkUsed()
	return r
}

// TestLCCBlockMatchesLCC is the bit-sliced LCC's differential: on random
// labelled graphs (with and without edge labels) and dense templates with
// repeated labels, wildcards and multi-count groups, starting from the full,
// a restricted and a compacted state, every lane of every block must end with
// exactly the ω, vertex bits, slot bits, LCCMessages and LCCIterations of its
// own lcc run, and a block must charge exactly its lanes' ticks. 1, 2, 63 and
// 64 lanes make one block, 65 make two.
func TestLCCBlockMatchesLCC(t *testing.T) {
	rng := rand.New(rand.NewSource(3101))
	multi, wild, drops := false, false, 0
	for trial := 0; trial < 6; trial++ {
		edgeLabels := 0
		var g *graph.Graph
		if trial%2 == 0 {
			g = randomGraph(rng, 70, 260, 2)
		} else {
			edgeLabels = 2
			g = randomEdgeLabeledGraph(rng, 70, 260, 2, edgeLabels)
		}
		tp := blockTemplate(rng, edgeLabels)
		set, err := prototype.Generate(tp, 3)
		if err != nil {
			t.Fatal(err)
		}
		profs := make([]*localProfile, set.Count())
		for pi, p := range set.Protos {
			profs[pi] = buildLocalProfile(p.Template)
			for q := 0; q < tp.NumVertices(); q++ {
				for _, grp := range profs[pi].Groups(q) {
					multi = multi || grp.Count >= 2
				}
			}
		}
		wild = wild || tp.HasWildcard()

		var m Metrics
		restrict := bitvec.New(g.NumVertices())
		for v := 0; v < g.NumVertices(); v++ {
			if rng.Intn(3) != 0 {
				restrict.Set(v)
			}
		}
		starts := map[string]*State{
			"full":       NewFullState(g),
			"restricted": maxCandidateSet(g, tp, restrict, nil, &m),
			"compacted":  compactState(maxCandidateSet(g, tp, nil, nil, &m), forceCompact, &m, nil),
		}
		for name, level := range starts {
			before := level.Clone()
			for _, lanes := range []int{1, 2, 63, 64, 65} {
				tag := fmt.Sprintf("trial %d %v %s lanes=%d", trial, tp, name, lanes)
				want := make([]lccRun, lanes)
				lprofs := make([]*localProfile, lanes)
				var wantTicks int64
				for lane := range want {
					lprofs[lane] = profs[lane%len(profs)]
					want[lane] = runLCC(level, lprofs[lane])
					wantTicks += want[lane].ticks
					drops += level.NumActiveVertices() - want[lane].s.NumActiveVertices()
				}
				tracker := NewBudgetTracker(Budget{MaxWork: 1 << 62})
				cc := NewCancelCheck(WithBudgetTracker(context.Background(), tracker))
				got := make([]Metrics, lanes)
				for lo := 0; lo < lanes; lo += maxBlockLanes {
					hi := min(lo+maxBlockLanes, lanes)
					ms := make([]*Metrics, hi-lo)
					for i := range ms {
						ms[i] = &got[lo+i]
					}
					blk := lccBlock(level, lprofs[lo:hi], cc, ms)
					for lane := lo; lane < hi; lane++ {
						s, omega := blk.unpack(lane - lo)
						w := want[lane]
						if !s.verts.Equal(w.s.verts) || !s.edges.Equal(w.s.edges) {
							t.Fatalf("%s: lane %d state differs from lcc", tag, lane)
						}
						for v := range omega {
							if omega[v] != w.omega[v] {
								t.Fatalf("%s: lane %d ω(%d) = %b, lcc %b", tag, lane, v, omega[v], w.omega[v])
							}
						}
						if s.view != level.view {
							t.Fatalf("%s: lane %d lost the level's view", tag, lane)
						}
						if got[lane].LCCMessages != w.m.LCCMessages || got[lane].LCCIterations != w.m.LCCIterations {
							t.Fatalf("%s: lane %d messages/iterations %d/%d, lcc %d/%d", tag, lane,
								got[lane].LCCMessages, got[lane].LCCIterations, w.m.LCCMessages, w.m.LCCIterations)
						}
					}
				}
				cc.Release()
				if used := tracker.WorkUsed(); used != wantTicks {
					t.Fatalf("%s: block charged %d ticks, lcc runs %d", tag, used, wantTicks)
				}
			}
			if !level.verts.Equal(before.verts) || !level.edges.Equal(before.edges) {
				t.Fatalf("trial %d %s: lccBlock modified the level state", trial, name)
			}
		}
	}
	if !multi || !wild || drops == 0 {
		t.Fatalf("vacuous differential: multi-count groups %v, wildcards %v, lcc drops %d", multi, wild, drops)
	}
}

// TestLCCBlockBudgetDecline refuses the blocks' memory: with a byte cap of
// exactly what a run charges without its blocks, every level that would run
// blocks declines them and runs lcc per prototype, and the run completes —
// no Partial — with the results and counters of the unbudgeted, blocked run.
// Compaction is off so every level state, and so every block, lies on g; a
// block there costs more than everything the run charges after it, so the
// first one cannot fit.
func TestLCCBlockBudgetDecline(t *testing.T) {
	g := datagen.WDC(datagen.WDCConfig{NumVertices: 3000, EdgesPerVertex: 8, Seed: 7, PlantExact: 5, PlantPartial: 10})
	tp := datagen.WDC3()
	cfg := DefaultConfig(1)
	cfg.CountMatches = true
	cfg = compactingBelow(cfg, 0)
	tracker := NewBudgetTracker(Budget{MaxBytes: 1 << 62})
	want, err := RunContext(WithBudgetTracker(context.Background(), tracker), g, tp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Metrics.LCCBlocks == 0 {
		t.Fatal("no level ran a block: the decline is never at risk")
	}
	cfg.Budget = Budget{MaxBytes: tracker.BytesUsed() - want.Metrics.LCCBlocks*laneBlockBytes(g, tp.NumVertices())}
	got, err := Run(g, tp, cfg)
	if err != nil || got.Partial {
		t.Fatalf("declined blocks: err %v, partial %v", err, got != nil && got.Partial)
	}
	if got.Metrics.LCCBlocks != 0 || got.Metrics.LCCBlocksDeclined == 0 {
		t.Fatalf("blocks %d, declined %d: want every block declined", got.Metrics.LCCBlocks, got.Metrics.LCCBlocksDeclined)
	}
	assertSameResult(t, want, got, "declined")
	if w, g := counterVector(&want.Metrics), counterVector(&got.Metrics); fmt.Sprint(w) != fmt.Sprint(g) {
		t.Errorf("counters moved: blocked %v, declined %v", w, g)
	}
}

// TestLCCBlockCancellation cancels the context as each WDC-3 block starts:
// the run returns the context's error, and every block's probe stops within
// one check interval — at most cancelInterval ticks, plus the lanes of the
// vertex visit that crossed it.
func TestLCCBlockCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark's WDC-3 query")
	}
	g := datagen.WDC(datagen.DefaultWDCConfig())
	defer func() { testHookLCCBlock = nil }()
	for _, width := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		var mu sync.Mutex
		started := map[*CancelCheck]uint32{}
		testHookLCCBlock = func(cc *CancelCheck) {
			mu.Lock()
			defer mu.Unlock()
			started[cc] = cc.n
			cancel()
		}
		_, err := RunParallelContext(ctx, g, datagen.WDC3(), DefaultConfig(3), width)
		testHookLCCBlock = nil
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("width %d: err = %v, want context.Canceled", width, err)
		}
		if len(started) == 0 {
			t.Fatalf("width %d: no block started", width)
		}
		for cc, n0 := range started {
			if ticks := cc.n - n0; ticks >= cancelInterval+maxBlockLanes {
				t.Errorf("width %d: a block ran %d ticks past the cancel", width, ticks)
			}
		}
	}
}

// TestLCCBlockWorkBudget exhausts a work budget just after each WDC-3 block
// starts: the run returns a Partial result whose completed levels are whole
// and bit-identical to the unbudgeted run's, including runs that complete
// levels before the block that dies.
func TestLCCBlockWorkBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark's WDC-3 query")
	}
	g := datagen.WDC(datagen.DefaultWDCConfig())
	tp := datagen.WDC3()
	cfg := DefaultConfig(3)
	cfg.CountMatches = true
	tracker := NewBudgetTracker(Budget{MaxWork: 1 << 62})
	var starts []int64
	testHookLCCBlock = func(cc *CancelCheck) { starts = append(starts, tracker.WorkUsed()) }
	defer func() { testHookLCCBlock = nil }()
	want, err := RunContext(WithBudgetTracker(context.Background(), tracker), g, tp, cfg)
	testHookLCCBlock = nil
	if err != nil {
		t.Fatal(err)
	}
	completed := 0
	for i, start := range starts {
		bcfg := cfg
		bcfg.Budget = Budget{MaxWork: start + cancelInterval}
		got, err := Run(g, tp, bcfg)
		if !errors.Is(err, ErrBudgetExhausted) || got == nil || !got.Partial {
			t.Fatalf("block %d: err %v, want a partial budget exhaustion", i, err)
		}
		assertPartialPrefix(t, want, got, fmt.Sprintf("block %d", i))
		completed = max(completed, got.CompletedLevels())
	}
	if completed == 0 {
		t.Fatalf("no budget died in a block after a completed level (%d blocks)", len(starts))
	}
}

// TestLCCBlockWidths runs WDC-3 at widths 1, 2 and 3 — two blocks of 54/55
// lanes, two, and three of about 36 at δ=3 — and asserts identical Rho,
// solutions and match counts. Counters are pinned at width 1 by
// TestGoldenCounters.
func TestLCCBlockWidths(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark's WDC-3 query")
	}
	g := datagen.WDC(datagen.DefaultWDCConfig())
	cfg := DefaultConfig(3)
	cfg.CountMatches = true
	var want *Result
	for _, width := range []int{1, 2, 3} {
		got, err := RunParallelContext(context.Background(), g, datagen.WDC3(), cfg, width)
		if err != nil {
			t.Fatal(err)
		}
		if got.Metrics.LCCBlocks == 0 {
			t.Fatalf("width %d ran no block", width)
		}
		if want == nil {
			want = got
			continue
		}
		assertSameResult(t, want, got, fmt.Sprintf("width %d", width))
	}
}

// TestLaneCounts checks the bit-sliced counters against plain per-lane
// counts: random masks, long runs of one mask, runs past a plane's range and
// enough adds to force flushes.
func TestLaneCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(3102))
	var c laneCounts
	var want [maxBlockLanes]int64
	masks := []uint64{0, ^uint64(0), 1 << 63, rng.Uint64(), rng.Uint64()}
	add := func(m uint64, n int) {
		for i := 0; i < n; i++ {
			c.add(m)
		}
		for lane := range want {
			if m>>uint(lane)&1 != 0 {
				want[lane] += int64(n)
			}
		}
	}
	for i := 0; i < 5000; i++ {
		switch rng.Intn(4) {
		case 0:
			add(rng.Uint64(), 1)
		case 1:
			add(masks[rng.Intn(len(masks))], 1+rng.Intn(40))
		default:
			add(masks[rng.Intn(len(masks))], 1)
		}
	}
	add(masks[1], 1<<17)
	add(masks[3], 3)
	if got := c.totals(); *got != want {
		t.Fatalf("bit-sliced counts\n %v\nwant\n %v", *got, want)
	}
}

func TestBlockCount(t *testing.T) {
	for _, c := range []struct{ lanes, width, want int }{
		{0, 1, 0}, {7, 1, 0}, {8, 1, 1}, {8, 2, 0}, {16, 2, 2}, {64, 1, 1},
		{65, 1, 2}, {109, 1, 2}, {109, 2, 2}, {109, 3, 3}, {44, 8, 0}, {200, 2, 4},
	} {
		if got := blockCount(c.lanes, c.width); got != c.want {
			t.Errorf("blockCount(%d, %d) = %d, want %d", c.lanes, c.width, got, c.want)
		}
	}
}
