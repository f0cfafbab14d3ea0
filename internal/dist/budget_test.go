package dist

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"approxmatch/internal/core"
)

// TestDistPartialDifferential is the distributed twin of the core
// anytime-partial property test: a budget-killed distributed run must report
// a complete-prefix of levels whose solutions and Rho columns are
// bit-identical to the unbudgeted distributed run, with unfinished
// prototypes reported unknown.
func TestDistPartialDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(4040))
	partials := 0
	for trial := 0; trial < 6; trial++ {
		g := randomGraph(rng, 90, 260, 3)
		tp := randomTemplate(rng, 4, 3)
		opts := DefaultOptions(2)
		opts.CountMatches = true
		e := NewEngine(g, Config{Ranks: 1 + rng.Intn(5), RanksPerNode: 2})

		tracker := core.NewBudgetTracker(core.Budget{MaxWork: 1 << 62})
		want, err := RunContext(core.WithBudgetTracker(context.Background(), tracker), e, tp, opts)
		if err != nil {
			t.Fatal(err)
		}
		total := tracker.WorkUsed()

		for _, frac := range []float64{0.1, 0.5, 0.9} {
			bopts := opts
			bopts.Budget = core.Budget{MaxWork: int64(frac * float64(total))}
			// Fresh engine: rank ownership mutates during a run.
			got, err := RunContext(context.Background(), NewEngine(g, Config{Ranks: e.cfg.Ranks, RanksPerNode: 2}), tp, bopts)
			if err != nil {
				if !errors.Is(err, core.ErrBudgetExhausted) {
					t.Fatalf("frac=%v: unexpected error %v", frac, err)
				}
				if got == nil || !got.Partial {
					t.Fatalf("frac=%v: budget error without partial result", frac)
				}
				partials++
			} else if got.Partial {
				t.Fatalf("frac=%v: partial without error", frac)
			}

			exact := make(map[int]bool)
			incomplete := false
			for _, lv := range got.Levels {
				if lv.Complete && incomplete {
					t.Fatalf("frac=%v: complete level below an incomplete one", frac)
				}
				if !lv.Complete {
					incomplete = true
				}
				exact[lv.Dist] = lv.Complete
			}
			for pi, p := range got.Set.Protos {
				if !exact[p.Dist] {
					if got.Solutions[pi] != nil {
						t.Errorf("frac=%v: proto %d on incomplete level has a solution", frac, pi)
					}
					continue
				}
				ws, gs := want.Solutions[pi], got.Solutions[pi]
				if gs == nil {
					t.Fatalf("frac=%v: proto %d on complete level missing", frac, pi)
				}
				if !ws.Verts.Equal(gs.Verts) || !ws.Edges.Equal(gs.Edges) || ws.MatchCount != gs.MatchCount {
					t.Errorf("frac=%v: proto %d differs from full run", frac, pi)
				}
				for v := 0; v < g.NumVertices(); v++ {
					if want.Rho.Get(v, pi) != got.Rho.Get(v, pi) {
						t.Fatalf("frac=%v: Rho column %d differs at vertex %d", frac, pi, v)
					}
				}
			}
		}
	}
	if partials == 0 {
		t.Fatal("no distributed trial ever went partial; the differential is vacuous")
	}
}
