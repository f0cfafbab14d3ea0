package eval

import (
	"context"
	"time"

	"approxmatch/internal/core"
	"approxmatch/internal/dist"
	"approxmatch/internal/motif"
	"approxmatch/internal/naive"
)

// NaiveVsHGTRow is one pattern of Fig. 7.
type NaiveVsHGTRow struct {
	Query string
	Edges int
	K     int
	// AllEdges marks the motif row, whose k deletes every template edge.
	AllEdges   bool
	Naive, HGT time.Duration
}

// Fig7 times the naïve approach (each prototype searched independently on
// the full graph) against the pipeline for the paper's pattern/graph
// combinations, then for 4-motif counting on the YouTube-like graph.
func Fig7(quick bool) ([]NaiveVsHGTRow, error) {
	var rows []NaiveVsHGTRow
	for _, q := range []Query{RMAT1, WDC1, WDC2, WDC3, RDT1, IMDB1} {
		g, tpl, k := q.At(quick)
		start := time.Now()
		if _, err := naive.Run(g, tpl, k, false); err != nil {
			return nil, err
		}
		naiveT := time.Since(start)
		start = time.Now()
		if _, err := core.Run(g, tpl, core.DefaultConfig(k)); err != nil {
			return nil, err
		}
		rows = append(rows, NaiveVsHGTRow{q.Name, g.NumEdges(), k, false, naiveT, time.Since(start)})
	}
	g, clique, k := Motif4.At(quick)
	start := time.Now()
	if _, err := naive.Run(g, clique, k, true); err != nil {
		return nil, err
	}
	naiveT := time.Since(start)
	start = time.Now()
	if _, _, err := motif.PipelineCounts(g, clique.NumVertices(), core.DefaultConfig(0)); err != nil {
		return nil, err
	}
	rows = append(rows, NaiveVsHGTRow{"4-Motif (YouTube-like)", g.NumEdges(), k, true, naiveT, time.Since(start)})
	return rows, nil
}

// ScenarioRow is one edit-distance level of Fig. 8, with the level's time
// under each scenario.
type ScenarioRow struct {
	Dist, Prototypes, ActiveVertices int
	Labels                           int64
	// Naive apportions the naïve run's total time by the level's share of
	// prototypes: naive.Run searches every prototype in one call.
	Naive, X, Y, Z time.Duration
}

// Fig8 breaks WDC-3 down per edit-distance level, deepest first, under the
// paper's four scenarios: the naïve baseline, X (search-space reduction
// only), Y (X + work recycling) and Z (Y + parallel prototype search).
func Fig8(quick bool) ([]ScenarioRow, error) {
	g, tpl, k := WDC3.At(quick)
	start := time.Now()
	nres, err := naive.Run(g, tpl, k, false)
	if err != nil {
		return nil, err
	}
	naiveTotal := time.Since(start)

	x := core.Config{EditDistance: k, LabelPairRefinement: true}
	xres, err := core.Run(g, tpl, x)
	if err != nil {
		return nil, err
	}
	y := core.DefaultConfig(k) // x + WorkRecycling + FrequencyOrdering
	yres, err := core.Run(g, tpl, y)
	if err != nil {
		return nil, err
	}
	zres, err := core.RunParallelContext(context.Background(), g, tpl, y, 8)
	if err != nil {
		return nil, err
	}
	levelTimes := func(res *core.Result) map[int]time.Duration {
		out := map[int]time.Duration{}
		for _, lvl := range res.Levels {
			out[lvl.Dist] = lvl.Duration
		}
		return out
	}
	xT, yT, zT := levelTimes(xres), levelTimes(yres), levelTimes(zres)

	var rows []ScenarioRow
	for d := yres.Set.MaxDist; d >= 0; d-- {
		row := ScenarioRow{
			Dist:       d,
			Prototypes: yres.Set.CountAt(d),
			Naive:      naiveTotal * time.Duration(nres.Set.CountAt(d)) / time.Duration(nres.Set.Count()),
			X:          xT[d], Y: yT[d], Z: zT[d],
		}
		for _, lvl := range yres.Levels {
			if lvl.Dist == d {
				row.ActiveVertices, row.Labels = lvl.ActiveVertices, lvl.LabelsGenerated
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Messages is the §5.7 message table on WDC-2.
type Messages struct {
	Naive, HGT int64 // logical messages
	// HGTCandidate counts HGT's messages spent on the max-candidate set.
	HGTCandidate int64
	// Remote and Total count a distributed run's messages.
	Remote, Total      int64
	NaiveTime, HGTTime time.Duration
}

// MessageAnalysis counts total logical messages of the naïve search and
// the pipeline on WDC-2, and the remote share of a distributed run's.
func MessageAnalysis(quick bool) (*Messages, error) {
	g, tpl, k := WDC2.At(quick)
	start := time.Now()
	nres, err := naive.Run(g, tpl, k, false)
	if err != nil {
		return nil, err
	}
	naiveT := time.Since(start)
	start = time.Now()
	hres, err := core.Run(g, tpl, core.DefaultConfig(k))
	if err != nil {
		return nil, err
	}
	hgtT := time.Since(start)
	// The paper's 36-rank node shape, scaled down.
	e := dist.NewEngine(g, dist.Config{Ranks: 8, RanksPerNode: 4, DelegateThreshold: 512})
	if _, err := dist.Run(e, tpl, dist.DefaultOptions(k)); err != nil {
		return nil, err
	}
	return &Messages{
		Naive: nres.Metrics.TotalMessages(), HGT: hres.Metrics.TotalMessages(),
		HGTCandidate: hres.Metrics.CandidateMessages,
		Remote:       e.Stats.Remote(), Total: e.Stats.Total(),
		NaiveTime: naiveT, HGTTime: hgtT,
	}, nil
}
