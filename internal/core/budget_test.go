package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
	"approxmatch/internal/rmat"
)

// measureWork runs the pipeline under an effectively unlimited tracker and
// returns the result plus the total work units the run charged — the yard
// stick the partial-result differential scales its budgets from.
func measureWork(t *testing.T, run func(ctx context.Context) (*Result, error)) (*Result, int64) {
	t.Helper()
	tracker := NewBudgetTracker(Budget{MaxWork: 1 << 62})
	res, err := run(WithBudgetTracker(context.Background(), tracker))
	if err != nil {
		t.Fatal(err)
	}
	return res, tracker.WorkUsed()
}

// assertPartialPrefix checks the anytime-partial contract against a full
// reference run: levels form a complete-prefix (from MaxDist downward), every
// prototype on a completed level is bit-identical to the reference — column
// in Rho included — and incomplete prototypes are reported unknown (nil).
func assertPartialPrefix(t *testing.T, want, got *Result, tag string) {
	t.Helper()
	if len(got.Levels) != len(want.Levels) {
		t.Fatalf("%s: %d level entries, want %d", tag, len(got.Levels), len(want.Levels))
	}
	// Complete levels must be a prefix of the bottom-up order; once one
	// level is incomplete, all below it must be too.
	incomplete := false
	for _, lv := range got.Levels {
		if lv.Complete && incomplete {
			t.Fatalf("%s: level %d complete below an incomplete level", tag, lv.Dist)
		}
		if !lv.Complete {
			incomplete = true
		}
	}
	if got.Partial != incomplete {
		t.Fatalf("%s: Partial=%v but incomplete levels=%v", tag, got.Partial, incomplete)
	}
	exact := make(map[int]bool)
	for _, lv := range got.Levels {
		exact[lv.Dist] = lv.Complete
	}
	n := got.Rho.Rows()
	for pi, p := range got.Set.Protos {
		if !exact[p.Dist] {
			if got.Solutions[pi] != nil {
				t.Errorf("%s: proto %d on incomplete level has a solution", tag, pi)
			}
			continue
		}
		ws, gs := want.Solutions[pi], got.Solutions[pi]
		if gs == nil {
			t.Fatalf("%s: proto %d on complete level %d missing solution", tag, pi, p.Dist)
		}
		if !ws.Verts.Equal(gs.Verts) || !ws.Edges.Equal(gs.Edges) {
			t.Errorf("%s: proto %d bits differ from full run", tag, pi)
		}
		if ws.MatchCount != gs.MatchCount {
			t.Errorf("%s: proto %d count %d vs %d", tag, pi, gs.MatchCount, ws.MatchCount)
		}
		for v := 0; v < n; v++ {
			if want.Rho.Get(v, pi) != got.Rho.Get(v, pi) {
				t.Fatalf("%s: Rho column %d differs at vertex %d", tag, pi, v)
			}
		}
	}
}

// TestPartialDifferentialRMAT is the anytime-partial property test: on
// seeded R-MAT graphs with randomized templates, a run whose work budget is a
// fraction of the full run's work must return a Partial result whose
// completed levels are bit-identical to the unbudgeted run — sequential, at
// level width > 1, and with compaction forced on.
func TestPartialDifferentialRMAT(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	partials := 0
	for trial := 0; trial < 8; trial++ {
		p := rmat.Graph500(7, int64(4000+trial))
		p.EdgeFactor = 4
		g := rmat.Generate(p)
		tp := randomDecoratedTemplate(rng, g)
		cfg := DefaultConfig(1 + trial%2)
		cfg.CountMatches = true
		if trial%2 == 0 {
			cfg = compactingBelow(cfg, forceCompact)
		}

		variants := []struct {
			tag string
			run func(ctx context.Context, c Config) (*Result, error)
		}{
			{"seq", func(ctx context.Context, c Config) (*Result, error) {
				return RunContext(ctx, g, tp, c)
			}},
			{"parallel", func(ctx context.Context, c Config) (*Result, error) {
				return RunParallelContext(ctx, g, tp, c, 3)
			}},
		}
		for _, v := range variants {
			want, total := measureWork(t, func(ctx context.Context) (*Result, error) {
				return v.run(ctx, cfg)
			})
			for _, frac := range []float64{0.05, 0.3, 0.7} {
				bcfg := cfg
				bcfg.Budget = Budget{MaxWork: int64(frac * float64(total))}
				res, err := v.run(context.Background(), bcfg)
				if err != nil {
					if !errors.Is(err, ErrBudgetExhausted) {
						t.Fatalf("%s frac=%v: unexpected error %v", v.tag, frac, err)
					}
					if res == nil || !res.Partial {
						t.Fatalf("%s frac=%v: budget error without partial result", v.tag, frac)
					}
					partials++
				} else if res.Partial {
					t.Fatalf("%s frac=%v: partial result without error", v.tag, frac)
				}
				assertPartialPrefix(t, want, res, v.tag)
			}
		}
	}
	if partials == 0 {
		t.Fatal("no trial ever went partial; the differential is vacuous")
	}
}

// TestPartialCandidatePhase exhausts the budget during candidate-set
// generation: the result must be partial with zero completed levels and every
// prototype unknown.
func TestPartialCandidatePhase(t *testing.T) {
	g := rmat.Generate(rmat.Graph500(7, 99))
	tp := randomDecoratedTemplate(rand.New(rand.NewSource(3)), g)
	cfg := DefaultConfig(2)
	cfg.Budget = Budget{MaxWork: 1}
	res, err := Run(g, tp, cfg)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want budget exhaustion", err)
	}
	if res == nil || !res.Partial {
		t.Fatal("no partial result")
	}
	for _, lv := range res.Levels {
		if lv.Complete {
			t.Fatalf("level %d marked complete under a 1-unit budget", lv.Dist)
		}
	}
	for pi, sol := range res.Solutions {
		if sol != nil {
			t.Fatalf("prototype %d has a solution under a 1-unit budget", pi)
		}
	}
}

// TestPartialMetricsFold is the regression test for the abort accounting:
// work performed before a budget abort must still reach Result.Metrics on
// both the sequential and the prototype-parallel path, so /metrics never
// undercounts aborted queries.
func TestPartialMetricsFold(t *testing.T) {
	g := rmat.Generate(rmat.Graph500(7, 123))
	tp := randomDecoratedTemplate(rand.New(rand.NewSource(17)), g)
	cfg := DefaultConfig(2)
	_, total := measureWork(t, func(ctx context.Context) (*Result, error) {
		return RunContext(ctx, g, tp, cfg)
	})
	for _, parallel := range []int{0, 3} {
		bcfg := cfg
		bcfg.Budget = Budget{MaxWork: total / 2}
		var res *Result
		var err error
		if parallel > 0 {
			res, err = RunParallelContext(context.Background(), g, tp, bcfg, parallel)
		} else {
			res, err = Run(g, tp, bcfg)
		}
		if !errors.Is(err, ErrBudgetExhausted) {
			t.Fatalf("parallel=%d: err = %v, want budget exhaustion", parallel, err)
		}
		if sum := counterVector(&res.Metrics); func() int64 {
			var s int64
			for _, c := range sum {
				s += c
			}
			return s
		}() == 0 {
			t.Fatalf("parallel=%d: aborted run folded no metrics", parallel)
		}
	}
}

// TestWallBudgetPartial checks the wall dimension alone also downgrades to a
// partial result.
func TestWallBudgetPartial(t *testing.T) {
	g := rmat.Generate(rmat.Graph500(8, 7))
	tp := randomDecoratedTemplate(rand.New(rand.NewSource(8)), g)
	cfg := DefaultConfig(2)
	cfg.Budget = Budget{MaxWall: time.Nanosecond}
	res, err := Run(g, tp, cfg)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want budget exhaustion", err)
	}
	if res == nil || !res.Partial {
		t.Fatal("no partial result from wall exhaustion")
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Dim != "wall" {
		t.Fatalf("err = %#v, want wall-dimension BudgetError", err)
	}
}

// TestBudgetTrackerDims exercises the tracker's three dimensions directly.
func TestBudgetTrackerDims(t *testing.T) {
	tr := NewBudgetTracker(Budget{MaxWork: 10})
	if err := tr.charge(9); err != nil {
		t.Fatal(err)
	}
	if err := tr.charge(2); err == nil {
		t.Fatal("work over-charge accepted")
	} else if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("work error %v not ErrBudgetExhausted", err)
	}

	tr = NewBudgetTracker(Budget{MaxBytes: 100})
	if !tr.tryChargeBytes(60) || tr.tryChargeBytes(60) {
		t.Fatal("byte accounting wrong: want first 60 accepted, second declined")
	}
	if tr.BytesUsed() != 60 {
		t.Fatalf("BytesUsed = %d, want 60 (declined charge must not stick)", tr.BytesUsed())
	}
	if err := tr.chargeBytes(41); err == nil {
		t.Fatal("byte over-charge accepted")
	}

	if NewBudgetTracker(Budget{}) != nil {
		t.Fatal("zero budget must yield a nil (unlimited) tracker")
	}
}

// TestBudgetChargeScheduleIndependent puts the budget charge under the same
// schedule-independent contract as Rho, solutions and counters. For a seeded
// R-MAT query and for the serving layer's 6-vertex test graph, the work a
// complete run charges must be equal across parallelism {1,3} for every
// entry point, and equal between RunContext and RunParallelContext (they are
// one code path): every M* round's vertex visit, LCC visit, token hop and verification probe ticks exactly once
// whichever goroutine runs it, and no probe dies with uncharged ticks.
//
// One cell is exempt from the equality: work recycling at parallelism > 1.
// Sibling prototypes of a level share walk ids, so which of two concurrent
// searches pays for a shared walk is a race by design (the cache is
// correctness-neutral, not cost-neutral); that cell is held to a 25% band
// instead. A one-unit budget must exhaust in every cell.
func TestBudgetChargeScheduleIndependent(t *testing.T) {
	rg := rmat.Generate(rmat.Graph500(9, 4001))
	b := graph.NewBuilder(0)
	for c := 0; c < 2; c++ {
		v0, v1, v2 := b.AddVertex(1), b.AddVertex(2), b.AddVertex(3)
		b.AddEdge(v0, v1)
		b.AddEdge(v1, v2)
		if c == 0 {
			b.AddEdge(v0, v2)
		}
	}
	triangle := pattern.MustNew([]pattern.Label{1, 2, 3}, []pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}})
	fixtures := []struct {
		name string
		g    *graph.Graph
		tp   *pattern.Template
		k    int
	}{
		{"rmat", rg, randomDecoratedTemplate(rand.New(rand.NewSource(4001)), rg), 2},
		{"server6", b.Build(), triangle, 1},
	}
	entries := []struct {
		name string
		// group names the entry points that must charge the same.
		group string
		// run drives the entry point (par is the level width, where it
		// takes one) and reports whether it returned a Partial result
		// alongside its error.
		run func(ctx context.Context, g *graph.Graph, tp *pattern.Template, cfg Config, par int) (partial bool, err error)
	}{
		{"RunContext", "bottom-up", func(ctx context.Context, g *graph.Graph, tp *pattern.Template, cfg Config, _ int) (bool, error) {
			res, err := RunContext(ctx, g, tp, cfg)
			return res != nil && res.Partial, err
		}},
		{"RunParallelContext", "bottom-up", func(ctx context.Context, g *graph.Graph, tp *pattern.Template, cfg Config, par int) (bool, error) {
			res, err := RunParallelContext(ctx, g, tp, cfg, par)
			return res != nil && res.Partial, err
		}},
		{"RunTopDownContext", "top-down", func(ctx context.Context, g *graph.Graph, tp *pattern.Template, cfg Config, par int) (bool, error) {
			_, err := RunTopDownContext(ctx, g, tp, cfg, par)
			return false, err
		}},
	}
	for _, fx := range fixtures {
		for _, recycle := range []bool{true, false} {
			want := map[string]int64{} // group → the first cell's charge
			for _, en := range entries {
				for _, par := range []int{1, 3} {
					tag := fmt.Sprintf("%s recycle=%v %s parallelism=%d", fx.name, recycle, en.name, par)
					cfg := DefaultConfig(fx.k)
					cfg.CountMatches = true
					cfg.WorkRecycling = recycle
					tracker := NewBudgetTracker(Budget{MaxWork: 1 << 62})
					if _, err := en.run(WithBudgetTracker(context.Background(), tracker), fx.g, fx.tp, cfg, par); err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					used := tracker.WorkUsed()
					ref, seen := want[en.group]
					switch {
					case !seen:
						want[en.group] = used
					case !(recycle && par > 1):
						if used != ref {
							t.Errorf("%s: charged %d work units, want %d", tag, used, ref)
						}
					case 4*used < 3*ref || 4*used > 5*ref:
						t.Errorf("%s: charged %d work units, outside 25%% of %d", tag, used, ref)
					}

					cfg.Budget = Budget{MaxWork: 1}
					partial, err := en.run(context.Background(), fx.g, fx.tp, cfg, par)
					if !errors.Is(err, ErrBudgetExhausted) {
						t.Errorf("%s: one-unit budget: err = %v, want budget exhaustion", tag, err)
					}
					if en.group == "bottom-up" && !partial {
						t.Errorf("%s: one-unit budget: no partial result", tag)
					}
				}
			}
		}
	}
}
