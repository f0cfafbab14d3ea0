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
// cold queries (the differential suites only pin cross-schedule equality).
// The values were recorded at the commit before the kernels moved to the
// one-pass neighbour gather and must not be edited by a change that claims to
// keep the kernels' logical work: a kernel rewrite is counter-neutral exactly
// when this table still passes. Width stays 1 — at width > 1 sibling
// prototypes race on the work-recycling cache and counters (not results) vary.
func TestGoldenCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark's WDC and RMAT queries")
	}
	defer func(old int) { minParallelScan = old }(minParallelScan)
	minParallelScan = prodMinParallelScan
	wdc := datagen.WDC(datagen.DefaultWDCConfig())
	rg, rt := datagen.RMATWithPattern(16)
	cases := []struct {
		name string
		g    *graph.Graph
		tp   *pattern.Template
		k    int
		want [2]goldenCounters // Workers 0, Workers 2
	}{
		{"WDC-1", wdc, datagen.WDC1(), 2, [2]goldenCounters{
			{130064, 1813619, 105, 12326, 1281, 168, 538400, 1146, 2930, 534433, 3, 56, 14, 299830, 4412074},
			{130064, 2245510, 126, 12326, 1281, 168, 538400, 1146, 2930, 534433, 3, 56, 14, 299830, 4543686},
		}},
		{"WDC-2", wdc, datagen.WDC2(), 2, [2]goldenCounters{
			{117036, 4774436, 159, 120661, 24307, 13255, 3676166, 51061, 237119, 3432838, 99, 737, 14, 1778322, 20142268},
			{117036, 6229746, 202, 120661, 24307, 13255, 3676166, 51061, 237119, 3432838, 99, 737, 14, 1778322, 20602816},
		}},
		{"WDC-3", wdc, datagen.WDC3(), 3, [2]goldenCounters{
			{151440, 9307300, 1201, 57504, 4751, 39505, 56756, 5171, 25857, 30893, 0, 0, 164, 5186, 4108648},
			{151440, 13450558, 1698, 57504, 4751, 39505, 56756, 5171, 25857, 30893, 0, 0, 164, 5186, 5034056},
		}},
		{"RMAT-1", rg, rt, 1, [2]goldenCounters{
			{19168, 458827, 45, 18725, 5819, 10267, 38992, 5876, 21926, 17061, 214, 215, 8, 2710, 573015},
			{19168, 660184, 63, 18725, 5819, 10267, 38992, 5876, 21926, 17061, 214, 215, 8, 2710, 676761},
		}},
	}
	for _, tc := range cases {
		for wi, workers := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				cfg := DefaultConfig(tc.k)
				cfg.CountMatches = true
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
				if got != tc.want[wi] {
					t.Errorf("counters moved:\n got  %+v\n want %+v", got, tc.want[wi])
				}
			})
		}
	}
}
