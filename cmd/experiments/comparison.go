package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"approxmatch/internal/core"
	"approxmatch/internal/datagen"
	"approxmatch/internal/dist"
	"approxmatch/internal/graph"
	"approxmatch/internal/motif"
	"approxmatch/internal/naive"
	"approxmatch/internal/pattern"
)

// expFig7 compares the naïve approach (each prototype searched
// independently on the full graph) against the optimized pipeline for the
// paper's pattern/graph combinations.
func expFig7(w io.Writer, quick bool) {
	sz := sizesFor(quick)
	type workload struct {
		name string
		g    *graph.Graph
		tpl  *pattern.Template
		k    int
	}
	rmatG := datagen.RMATGraph(sz.rmatBase + 2)
	workloads := []workload{
		{"RMAT-1", rmatG, datagen.RMAT1(rmatG), 2},
		{"WDC-1", wdc(quick), datagen.WDC1(), 2},
		{"WDC-2", wdc(quick), datagen.WDC2(), 2},
		{"WDC-3", wdc(quick), datagen.WDC3(), wdc3K(quick)},
		{"RDT-1", reddit(quick), datagen.RDT1(), datagen.RDT1EditDistance},
		{"IMDB-1", imdb(quick), datagen.IMDB1(), datagen.IMDB1EditDistance},
	}
	var rows [][]string
	var totalSpeedup float64
	for _, wl := range workloads {
		var naiveTime, hgtTime time.Duration
		naiveTime = timed(func() {
			if _, err := naive.Run(wl.g, wl.tpl, wl.k, false); err != nil {
				panic(err)
			}
		})
		hgtTime = timed(func() {
			if _, err := core.Run(wl.g, wl.tpl, core.DefaultConfig(wl.k)); err != nil {
				panic(err)
			}
		})
		totalSpeedup += float64(naiveTime) / float64(hgtTime)
		rows = append(rows, []string{
			wl.name,
			fmt.Sprintf("%d", wl.g.NumEdges()),
			fmt.Sprintf("%d", wl.k),
			ms(naiveTime), ms(hgtTime), speedup(naiveTime, hgtTime),
		})
	}
	// 4-Motif on the YouTube-like graph, with counting (as in the paper).
	yt := datagen.PowerLaw(sz.motifVertices, 4, 104)
	var naiveT, hgtT time.Duration
	clique := motif.Clique(4)
	naiveT = timed(func() {
		if _, err := naive.Run(yt, clique, clique.NumEdges(), true); err != nil {
			panic(err)
		}
	})
	hgtT = timed(func() {
		cfg := core.DefaultConfig(0)
		if _, _, err := motif.PipelineCounts(yt, 4, cfg); err != nil {
			panic(err)
		}
	})
	totalSpeedup += float64(naiveT) / float64(hgtT)
	rows = append(rows, []string{
		"4-Motif (YouTube-like)",
		fmt.Sprintf("%d", yt.NumEdges()), "6 (all)",
		ms(naiveT), ms(hgtT), speedup(naiveT, hgtT),
	})
	table(w, []string{"pattern (graph)", "|E|", "k", "naïve", "HGT", "speedup"}, rows)
	fmt.Fprintf(w, "\naverage speedup: %.1fx (paper reports 3.8x average)\n", totalSpeedup/float64(len(rows)))
}

// expFig8 breaks WDC-3 down per edit-distance level under the paper's four
// scenarios: the naïve baseline, X (search-space reduction only), Y (X +
// work recycling) and Z (Y + parallel prototype search).
func expFig8(w io.Writer, quick bool) {
	g := wdc(quick)
	tpl := datagen.WDC3()
	k := wdc3K(quick)

	// Naïve, grouped per level.
	set, _ := naive.Run(g, tpl, 0, false) // set only; cheap run at k=0
	_ = set
	naiveLevel := map[int]time.Duration{}
	nres, err := naive.Run(g, tpl, k, false)
	if err != nil {
		panic(err)
	}
	// Re-run per prototype to time levels (naive.Run is monolithic):
	// approximate by equal division of measured per-prototype searches.
	naiveTotal := timed(func() {
		if _, err := naive.Run(g, tpl, k, false); err != nil {
			panic(err)
		}
	})
	for d := 0; d <= nres.Set.MaxDist; d++ {
		naiveLevel[d] = naiveTotal * time.Duration(nres.Set.CountAt(d)) / time.Duration(nres.Set.Count())
	}

	run := func(cfg core.Config) map[int]time.Duration {
		res, err := core.Run(g, tpl, cfg)
		if err != nil {
			panic(err)
		}
		out := map[int]time.Duration{}
		for _, lvl := range res.Levels {
			out[lvl.Dist] = lvl.Duration
		}
		return out
	}
	x := core.Config{EditDistance: k, LabelPairRefinement: true} // reduction only
	y := x
	y.WorkRecycling = true
	y.FrequencyOrdering = true
	xLevel := run(x)
	yLevel := run(y)
	zLevel := map[int]time.Duration{}
	{
		res, err := core.RunParallelContext(context.Background(), g, tpl, y, 8)
		if err != nil {
			panic(err)
		}
		for _, lvl := range res.Levels {
			zLevel[lvl.Dist] = lvl.Duration
		}
	}

	var rows [][]string
	res, _ := core.Run(g, tpl, core.DefaultConfig(k))
	for d := res.Set.MaxDist; d >= 0; d-- {
		var verts int
		var labels int64
		for _, lvl := range res.Levels {
			if lvl.Dist == d {
				verts = lvl.ActiveVertices
				labels = lvl.LabelsGenerated
			}
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", d),
			fmt.Sprintf("%d", res.Set.CountAt(d)),
			fmt.Sprintf("%d", verts),
			fmt.Sprintf("%d", labels),
			ms(naiveLevel[d]), ms(xLevel[d]), ms(yLevel[d]), ms(zLevel[d]),
		})
	}
	table(w, []string{"k", "#p_k", "|V*_k|", "labels", "naïve (est/level)", "X: reduction", "Y: +recycling", "Z: +parallel"}, rows)
}

// expMessages reproduces the §5.7 message-analysis table on WDC-2: total
// logical messages for naïve vs HGT, the remote fraction (from the
// distributed engine) and the share spent on candidate-set generation.
func expMessages(w io.Writer, quick bool) {
	g := wdc(quick)
	tpl := datagen.WDC2()
	const k = 2

	nres, err := naive.Run(g, tpl, k, false)
	if err != nil {
		panic(err)
	}
	var naiveTime, hgtTime time.Duration
	naiveTime = timed(func() {
		if _, err := naive.Run(g, tpl, k, false); err != nil {
			panic(err)
		}
	})
	var hres *core.Result
	hgtTime = timed(func() {
		hres, err = core.Run(g, tpl, core.DefaultConfig(k))
		if err != nil {
			panic(err)
		}
	})
	// Remote fraction from a distributed run with the paper-like 36-rank
	// node shape scaled down.
	e := dist.NewEngine(g, dist.Config{Ranks: 8, RanksPerNode: 4, DelegateThreshold: 512})
	if _, err := dist.Run(e, tpl, dist.DefaultOptions(k)); err != nil {
		panic(err)
	}
	remotePct := 100 * float64(e.Stats.Remote()) / float64(e.Stats.Total())
	nm, hm := nres.Metrics.TotalMessages(), hres.Metrics.TotalMessages()
	candPct := 100 * float64(hres.Metrics.CandidateMessages) / float64(hm)

	table(w, []string{"", "naïve", "HGT", "improvement"}, [][]string{
		{"total messages", fmt.Sprintf("%d", nm), fmt.Sprintf("%d", hm), fmt.Sprintf("%.1fx", float64(nm)/float64(hm))},
		{"% remote (dist engine)", "—", fmt.Sprintf("%.1f%%", remotePct), ""},
		{"% due to max-candidate set", "n/a", fmt.Sprintf("%.1f%%", candPct), ""},
		{"time", ms(naiveTime), ms(hgtTime), speedup(naiveTime, hgtTime)},
	})
}
