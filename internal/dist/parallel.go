package dist

import (
	"context"
	"sync"
	"time"

	"approxmatch/internal/constraint"
	"approxmatch/internal/core"
	"approxmatch/internal/pattern"
)

// ParallelSearchResult reports a parallel-prototype-search run: the §5.4
// deployment-size study measures both wall time (time-to-solution) and
// aggregate CPU time (rank-seconds, the paper's CPU-Hour axis).
type ParallelSearchResult struct {
	Solutions []*core.Solution
	// Wall is the end-to-end time with `Deployments` searches in flight.
	Wall time.Duration
	// RankSeconds is Σ over prototypes of (search time × ranks per
	// deployment) — the aggregate compute cost.
	RankSeconds float64
	// PerPrototype records individual search durations.
	PerPrototype []time.Duration
}

// SearchPrototypesParallel searches the given prototype templates on
// replicas of the (pruned) level state, running up to `deployments`
// searches concurrently, each charged for `ranksPerDeployment` ranks — the
// multi-level parallelism of §4 ("replicating the max-candidate set on
// multiple smaller deployments"). The order of templates is preserved in
// the result.
func SearchPrototypesParallel(level *core.State, templates []*pattern.Template, deployments, ranksPerDeployment int, freq constraint.LabelFreq) *ParallelSearchResult {
	if deployments < 1 {
		deployments = 1
	}
	res := &ParallelSearchResult{
		Solutions:    make([]*core.Solution, len(templates)),
		PerPrototype: make([]time.Duration, len(templates)),
	}
	start := time.Now()
	sem := make(chan struct{}, deployments)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i, t := range templates {
		wg.Add(1)
		go func(i int, t *pattern.Template) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var m core.Metrics
			t0 := time.Now()
			sol := core.SearchOn(context.Background(), level, t, nil, freq, false, &m)
			d := time.Since(t0)
			mu.Lock()
			res.Solutions[i] = sol
			res.PerPrototype[i] = d
			res.RankSeconds += d.Seconds() * float64(ranksPerDeployment)
			mu.Unlock()
		}(i, t)
	}
	wg.Wait()
	res.Wall = time.Since(start)
	return res
}

// OrderByEstimatedCost returns template indices ordered so the most
// expensive prototype searches launch first — the prototype-ordering
// optimization of §5.4 (overlapping expensive searches improves parallel
// completion time). Cost is estimated from candidate-label frequency mass.
func OrderByEstimatedCost(templates []*pattern.Template, freq constraint.LabelFreq) []int {
	type scored struct {
		idx  int
		cost float64
	}
	xs := make([]scored, len(templates))
	for i, t := range templates {
		var c float64
		for q := 0; q < t.NumVertices(); q++ {
			c += float64(freq[t.Label(q)])
		}
		// Cyclic templates trigger token walks: weigh them up.
		if !t.IsTree() {
			c *= 2
		}
		xs[i] = scored{i, c}
	}
	// Descending by cost.
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j].cost > xs[j-1].cost; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = x.idx
	}
	return out
}
