package core

import (
	"context"
	"fmt"
	"testing"

	"approxmatch/internal/datagen"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
)

// goldenCounters is the counter vector the golden test pins: every logical
// work counter a kernel edit could move, the total match count and the work
// units charged to the budget tracker.
type goldenCounters struct {
	CandidateMessages, LCCMessages, LCCIterations            int64
	NLCCMessages, TokensInitiated, CacheHits                 int64
	VerifyMessages, VerifySearches, VerifyExpansions         int64
	EnumExpansions, GuardHits, GuardsSet, PrototypesSearched int64
	Matches, WorkUnits                                       int64
}

// TestGoldenCounters pins absolute counter values of the repo benchmark's
// cold queries (the differential suites only pin cross-schedule equality),
// once without and once with match counting. One table serves every Workers
// value: the deprecated Workers field is inert (M* has one inline schedule)
// and stays settable only for callers that still set it, so the rows are
// asserted at Workers 0 and 2 to keep it from ever moving a counter.
//
// The search table (CountMatches=false) pins candidate generation, LCC, NLCC
// and verification. It must not be edited by a change that claims to keep
// those kernels' logical work: such a change is counter-neutral exactly when
// this table still passes.
//
// The count table (CountMatches=true) adds the counting phase, whose counters
// count work done: an enumerated order position costs one VerifyMessages per
// candidate that reaches its edge test and one EnumExpansions per consistent
// candidate, and a pendant position folded into per-vertex weights costs one
// work unit per slot its weight pass reads and no expansion or message. Only
// the counting-fed columns (VerifyMessages, EnumExpansions, GuardHits,
// GuardsSet, WorkUnits) may move with the counting kernel; Matches never may.
//
// Width stays 1 — at width > 1 sibling prototypes race on the work-recycling
// cache and counters (not results) vary.
func TestGoldenCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark's WDC and RMAT queries")
	}
	wdc := datagen.WDC(datagen.DefaultWDCConfig())
	rg, rt := datagen.RMATWithPattern(16)
	cases := []struct {
		name   string
		g      *graph.Graph
		tp     *pattern.Template
		k      int
		search goldenCounters // CountMatches=false
		count  goldenCounters // CountMatches=true
	}{
		{"WDC-1", wdc, datagen.WDC1(), 2,
			goldenCounters{130064, 1813619, 105, 12286, 1281, 128, 3918, 1146, 2930, 0, 3, 56, 14, -1, 746157},
			goldenCounters{130064, 1813619, 105, 12286, 1281, 128, 10312, 1146, 2930, 6345, 3, 56, 14, 299830, 835689},
		},
		{"WDC-2", wdc, datagen.WDC2(), 2,
			goldenCounters{117036, 4775560, 161, 117169, 24262, 13193, 240822, 51034, 237066, 0, 99, 740, 14, -1, 2692585},
			goldenCounters{117036, 4775560, 161, 117169, 24262, 13193, 441019, 51034, 237066, 199756, 99, 740, 14, 1778322, 3322968},
		},
		{"WDC-3", wdc, datagen.WDC3(), 3,
			goldenCounters{151440, 9304275, 1198, 52323, 4717, 30870, 25863, 5171, 25857, 0, 0, 0, 164, -1, 3937083},
			goldenCounters{151440, 9304275, 1198, 52323, 4717, 30870, 51676, 5171, 25857, 25813, 0, 0, 164, 5186, 4039853},
		},
		{"RMAT-1", rg, rt, 1,
			goldenCounters{19168, 458827, 45, 18213, 5819, 9755, 21931, 5876, 21926, 0, 214, 215, 8, -1, 507057},
			goldenCounters{19168, 458827, 45, 18213, 5819, 9755, 35365, 5876, 21926, 13434, 214, 215, 8, 2710, 560217},
		},
	}
	for _, tc := range cases {
		for _, count := range []bool{false, true} {
			want, name := tc.count, tc.name
			if !count {
				want, name = tc.search, tc.name+"/nocount"
			}
			for _, workers := range []int{0, 2} {
				t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
					cfg := DefaultConfig(tc.k)
					cfg.CountMatches = count
					cfg.Workers = workers
					tracker := NewBudgetTracker(Budget{MaxWork: 1 << 62})
					res, err := RunParallelContext(WithBudgetTracker(context.Background(), tracker), tc.g, tc.tp, cfg, 1)
					if err != nil {
						t.Fatal(err)
					}
					m := &res.Metrics
					got := goldenCounters{
						m.CandidateMessages, m.LCCMessages, m.LCCIterations,
						m.NLCCMessages, m.TokensInitiated, m.CacheHits,
						m.VerifyMessages, m.VerifySearches, m.VerifyExpansions,
						m.EnumExpansions, m.GuardHits, m.GuardsSet, m.PrototypesSearched,
						res.TotalMatchCount(), tracker.WorkUsed(),
					}
					if got != want {
						t.Errorf("counters moved:\n got  %+v\n want %+v", got, want)
					}
				})
			}
		}
	}
}
