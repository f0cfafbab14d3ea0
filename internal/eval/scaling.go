package eval

import (
	"time"

	"approxmatch/internal/core"
	"approxmatch/internal/datagen"
	"approxmatch/internal/dist"
)

// WeakScalingRow is one R-MAT scale of Fig. 4.
type WeakScalingRow struct {
	Scale, Ranks int
	Edges        int
	Prototypes   int
	Wall         time.Duration
	// MaxWorkPerRank is the largest per-rank compute counter.
	MaxWorkPerRank int64
	Messages       int64
	// MatchingVertices sums each prototype's solution vertices.
	MatchingVertices int
}

// Fig4 runs weak scaling: R-MAT graphs doubling in size with rank counts
// doubling alongside, searching the planted RMAT-1 pattern at k=2 (24
// prototypes). The paper's flat runtime line translates to per-rank work
// and messages per edge staying roughly flat.
func Fig4(quick bool) ([]WeakScalingRow, error) {
	var rows []WeakScalingRow
	ranks := 2
	for _, scale := range rmatScales(quick) {
		g, tpl := datagen.RMATWithPattern(scale)
		e := dist.NewEngine(g, dist.Config{Ranks: ranks, RanksPerNode: 2, DelegateThreshold: 1024})
		start := time.Now()
		res, err := dist.Run(e, tpl, dist.DefaultOptions(2))
		if err != nil {
			return nil, err
		}
		row := WeakScalingRow{
			Scale: scale, Ranks: ranks, Edges: g.NumEdges(),
			Prototypes: res.Set.Count(), Wall: time.Since(start),
			MaxWorkPerRank: maxComputePerRank(e), Messages: e.Stats.Total(),
		}
		for _, sol := range res.Solutions {
			row.MatchingVertices += sol.Verts.Count()
		}
		rows = append(rows, row)
		ranks *= 2
	}
	return rows, nil
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

// StrongScaling is Fig. 6's series for one query.
type StrongScaling struct {
	Query string
	K     int
	Rows  []StrongScalingRow
}

// StrongScalingRow is one rank count of a strong-scaling series.
type StrongScalingRow struct {
	Ranks, Prototypes int
	Wall              time.Duration
	Levels            []core.LevelStats
	// ModeledSpeedup is the cost model's time at the series' smallest rank
	// count over its time at this one.
	ModeledSpeedup float64
}

// Fig6 runs strong scaling on the WDC-like graph for WDC-1/2/3: fixed input,
// rank count growing. The modeled speedup applies the cost model to the
// measured per-rank work and message locality, which the simulated ranks
// report whatever the host's core count.
func Fig6(quick bool) ([]StrongScaling, error) {
	rankSets := []int{4, 8, 16}
	if quick {
		rankSets = []int{2, 4}
	}
	var out []StrongScaling
	for _, q := range []Query{WDC1, WDC2, WDC3} {
		g, tpl, k := q.At(quick)
		series := StrongScaling{Query: q.Name, K: k}
		var baseModel float64
		for _, ranks := range rankSets {
			e := dist.NewEngine(g, dist.Config{Ranks: ranks, RanksPerNode: 4, DelegateThreshold: 512})
			start := time.Now()
			res, err := dist.Run(e, tpl, dist.DefaultOptions(k))
			if err != nil {
				return nil, err
			}
			wall := time.Since(start)
			model := dist.ModeledTime(e, dist.DefaultCostModel(), 4)
			if baseModel == 0 {
				baseModel = model
			}
			series.Rows = append(series.Rows, StrongScalingRow{
				Ranks: ranks, Prototypes: res.Set.Count(), Wall: wall,
				Levels: res.Levels, ModeledSpeedup: baseModel / model,
			})
		}
		out = append(out, series)
	}
	return out, nil
}
