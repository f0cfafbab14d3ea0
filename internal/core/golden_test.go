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
			goldenCounters{130064, 1813619, 105, 12326, 1281, 168, 3918, 1146, 2930, 0, 3, 56, 14, -1, 746399},
			goldenCounters{130064, 1813619, 105, 12326, 1281, 168, 10312, 1146, 2930, 6345, 3, 56, 14, 299830, 835931},
		},
		{"WDC-2", wdc, datagen.WDC2(), 2,
			goldenCounters{117036, 4774436, 159, 120661, 24307, 13255, 240932, 51061, 237119, 0, 99, 737, 14, -1, 2695251},
			goldenCounters{117036, 4774436, 159, 120661, 24307, 13255, 441129, 51061, 237119, 199756, 99, 737, 14, 1778322, 3325634},
		},
		{"WDC-3", wdc, datagen.WDC3(), 3,
			goldenCounters{151440, 9307300, 1201, 57504, 4751, 39505, 25863, 5171, 25857, 0, 0, 0, 164, -1, 3995476},
			goldenCounters{151440, 9307300, 1201, 57504, 4751, 39505, 51676, 5171, 25857, 25813, 0, 0, 164, 5186, 4098246},
		},
		{"RMAT-1", rg, rt, 1,
			goldenCounters{19168, 458827, 45, 18725, 5819, 10267, 21931, 5876, 21926, 0, 214, 215, 8, -1, 511173},
			goldenCounters{19168, 458827, 45, 18725, 5819, 10267, 35365, 5876, 21926, 13434, 214, 215, 8, 2710, 564333},
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
