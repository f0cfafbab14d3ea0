package main

import (
	"fmt"
	"io"
	"time"

	"approxmatch/internal/core"
	"approxmatch/internal/datagen"
	"approxmatch/internal/dist"
	"approxmatch/internal/pattern"
)

// expFig4 reproduces the weak-scaling experiment: R-MAT graphs doubling in
// size with rank counts doubling alongside, searching the RMAT-1 pattern
// (k=2, 24 prototypes). The paper's "flat line" criterion translates here
// to a roughly constant normalized cost: per-rank work and messages per
// edge stay flat as graph and deployment grow together. (This host runs
// all ranks on shared cores, so raw wall time cannot be flat; the
// normalized columns carry the scaling signal.)
func expFig4(w io.Writer, quick bool) {
	sz := sizesFor(quick)
	var rows [][]string
	ranks := 2
	for step := 0; step < sz.rmatSteps; step++ {
		scale := sz.rmatBase + step
		g, tpl := datagen.RMATWithPattern(scale)
		e := dist.NewEngine(g, dist.Config{Ranks: ranks, RanksPerNode: 2, DelegateThreshold: 1024})
		var protos, matches int
		elapsed := timed(func() {
			res, err := dist.Run(e, tpl, dist.DefaultOptions(2))
			if err != nil {
				panic(err)
			}
			protos = res.Set.Count()
			for _, sol := range res.Solutions {
				matches += sol.Verts.Count()
			}
		})
		perRank := maxComputePerRank(e)
		msgs := e.Stats.Total()
		rows = append(rows, []string{
			fmt.Sprintf("%d", scale),
			fmt.Sprintf("%d", ranks),
			fmt.Sprintf("%d", g.NumEdges()),
			fmt.Sprintf("%d", protos),
			ms(elapsed),
			fmt.Sprintf("%d", perRank),
			fmt.Sprintf("%.2f", float64(msgs)/float64(g.NumEdges())),
			fmt.Sprintf("%d", matches),
		})
		ranks *= 2
	}
	table(w, []string{"R-MAT scale", "ranks", "|E|", "#p", "wall", "max work/rank", "msgs per edge", "matching vertices (Σ protos)"}, rows)
	fmt.Fprintln(w, "\nWeak-scaling criterion: 'max work/rank' and 'msgs per edge' stay roughly flat as scale and ranks double together (the paper's flat runtime line).")
}

// expFig6 reproduces strong scaling on the WDC-like graph for WDC-1/2/3:
// fixed input, rank count growing. The modeled-time column applies the
// cost model to the measured per-rank work and message locality (wall time
// on this single-core host cannot expose parallel speedup).
func expFig6(w io.Writer, quick bool) {
	g := wdc(quick)
	pats := []struct {
		name string
		tpl  *pattern.Template
		k    int
	}{
		{"WDC-1", datagen.WDC1(), 2},
		{"WDC-2", datagen.WDC2(), 2},
		{"WDC-3", datagen.WDC3(), wdc3K(quick)},
	}
	rankSets := []int{4, 8, 16}
	if quick {
		rankSets = []int{2, 4}
	}
	for _, p := range pats {
		var rows [][]string
		var baseModel float64
		for _, ranks := range rankSets {
			e := dist.NewEngine(g, dist.Config{Ranks: ranks, RanksPerNode: 4, DelegateThreshold: 512})
			var levels string
			var res *core.Result
			var err error
			elapsed := timed(func() { res, err = dist.Run(e, p.tpl, dist.DefaultOptions(p.k)) })
			if err != nil {
				panic(err)
			}
			for _, lvl := range res.Levels {
				levels += fmt.Sprintf("δ%d:%s ", lvl.Dist, lvl.Duration.Round(time.Millisecond))
			}
			model := dist.ModeledTime(e, dist.DefaultCostModel(), 4)
			if baseModel == 0 {
				baseModel = model
			}
			rows = append(rows, []string{
				fmt.Sprintf("%d", ranks),
				fmt.Sprintf("%d", res.Set.Count()),
				ms(elapsed),
				levels,
				fmt.Sprintf("%.2fx", baseModel/model),
			})
		}
		fmt.Fprintf(w, "\n**%s** (k=%d):\n\n", p.name, p.k)
		table(w, []string{"ranks", "#p", "wall (1-core host)", "per-level", "modeled speedup vs smallest"}, rows)
	}
}

// wdc3K picks the WDC-3 edit distance: the paper uses k=4 (100+
// prototypes); quick mode trims to k=2.
func wdc3K(quick bool) int {
	if quick {
		return 2
	}
	return 3
}

func maxComputePerRank(e *dist.Engine) int64 {
	var max int64
	for r := range e.ComputePerRank {
		if c := e.ComputePerRank[r].Load(); c > max {
			max = c
		}
	}
	return max
}
