package eval

import (
	"time"

	"approxmatch/internal/constraint"
	"approxmatch/internal/core"
	"approxmatch/internal/dist"
	"approxmatch/internal/motif"
	"approxmatch/internal/pattern"
)

// LoadBalanceRow is one pattern of Fig. 9(a): a distributed run without
// (NLB) and with (LB) the reshuffle of active vertices after candidate-set
// pruning.
type LoadBalanceRow struct {
	Query string
	// ImbalanceNLB and ImbalanceLB are the per-rank work imbalance,
	// max/mean.
	ImbalanceNLB, ImbalanceLB float64
	WallNLB, WallLB           time.Duration
}

// Fig9a measures load balancing on WDC-1/2/3. The signal is the per-rank
// work imbalance; on a multi-core host the wall time follows it.
func Fig9a(quick bool) ([]LoadBalanceRow, error) {
	var rows []LoadBalanceRow
	for _, q := range []Query{WDC1, WDC2, WDC3} {
		g, tpl, k := q.At(quick)
		run := func(rebalance bool) (float64, time.Duration, error) {
			e := dist.NewEngine(g, dist.Config{Ranks: 8, RanksPerNode: 4})
			opts := dist.DefaultOptions(k)
			opts.Rebalance = rebalance
			start := time.Now()
			_, err := dist.Run(e, tpl, opts)
			return dist.LoadImbalance(e), time.Since(start), err
		}
		row := LoadBalanceRow{Query: q.Name}
		var err error
		if row.ImbalanceNLB, row.WallNLB, err = run(false); err != nil {
			return nil, err
		}
		if row.ImbalanceLB, row.WallLB, err = run(true); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ConstraintOrderRow is one pattern of Fig. 9(b)'s top panel: NLCC token
// messages with non-local constraints in template order and ordered by
// label frequency, rare labels first.
type ConstraintOrderRow struct {
	Query                         string
	TemplateOrder, FrequencyOrder int64
}

// ConstraintOrdering measures frequency-based constraint ordering on WDC-1
// and WDC-2, with work recycling on.
func ConstraintOrdering(quick bool) ([]ConstraintOrderRow, error) {
	var rows []ConstraintOrderRow
	for _, q := range []Query{WDC1, WDC2} {
		g, tpl, k := q.At(quick)
		off := core.Config{EditDistance: k, WorkRecycling: true, LabelPairRefinement: true}
		on := off
		on.FrequencyOrdering = true
		offRes, err := core.Run(g, tpl, off)
		if err != nil {
			return nil, err
		}
		onRes, err := core.Run(g, tpl, on)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ConstraintOrderRow{q.Name, offRes.Metrics.NLCCMessages, onRes.Metrics.NLCCMessages})
	}
	return rows, nil
}

// PrototypeOrdering is Fig. 9(b)'s middle panel: the deepest WDC-3 level's
// prototypes searched 4-way parallel in their natural order and most
// expensive first.
type PrototypeOrdering struct {
	Natural, ExpensiveFirst *dist.ParallelSearchResult
}

// OrderPrototypes measures prototype ordering for parallel search.
func OrderPrototypes(quick bool) (*PrototypeOrdering, error) {
	full, mcs, freq, err := searchWDC3(quick)
	if err != nil {
		return nil, err
	}
	deepest := full.Set.At(full.Set.MaxDist)
	templates := make([]*pattern.Template, len(deepest))
	for i, pi := range deepest {
		templates[i] = full.Set.Protos[pi].Template
	}
	order := dist.OrderByEstimatedCost(templates, freq)
	reordered := make([]*pattern.Template, len(templates))
	for i, idx := range order {
		reordered[i] = templates[idx]
	}
	return &PrototypeOrdering{
		Natural:        dist.SearchPrototypesParallel(mcs, templates, 4, 2, freq),
		ExpensiveFirst: dist.SearchPrototypesParallel(mcs, reordered, 4, 2, freq),
	}, nil
}

// searchWDC3 prepares the parallel prototype searches over WDC-3's
// max-candidate set: the pipeline's result, which holds the prototypes, the
// candidate set and the graph's label frequencies.
func searchWDC3(quick bool) (*core.Result, *core.State, constraint.LabelFreq, error) {
	g, tpl, k := WDC3.At(quick)
	full, err := core.Run(g, tpl, core.DefaultConfig(k))
	if err != nil {
		return nil, nil, nil, err
	}
	var m core.Metrics
	mcs := core.MaxCandidateSet(g, tpl, &m)
	freq := constraint.LabelFreq{}
	for l, c := range g.LabelFrequencies() {
		freq[l] = c
	}
	return full, mcs, freq, nil
}

// EnumerationCost is one match-enumeration strategy: its search probes
// (the message analogue) and time.
type EnumerationCost struct {
	Probes int64
	Time   time.Duration
}

// Enumeration is Fig. 9(b)'s bottom panel on the 4-Motif workload: every
// prototype's matches enumerated afresh, and δ+1 matches extended by one
// edge.
type Enumeration struct {
	Direct, Extended EnumerationCost
}

// EnumerateMatches measures the match-enumeration extension. Both
// strategies count the same matches.
func EnumerateMatches(quick bool) (*Enumeration, error) {
	g, clique, _ := Motif4.At(quick)
	_, res, err := motif.PipelineCounts(g, clique.NumVertices(), core.DefaultConfig(0))
	if err != nil {
		return nil, err
	}
	var dm, em core.Metrics
	start := time.Now()
	core.CountAllMatches(res, &dm)
	direct := time.Since(start)
	start = time.Now()
	if _, err := core.CountAllMatchesExtended(res, &em); err != nil {
		return nil, err
	}
	return &Enumeration{
		Direct:   EnumerationCost{dm.VerifyMessages, direct},
		Extended: EnumerationCost{em.VerifyMessages, time.Since(start)},
	}, nil
}

// DeploymentRow is one deployment shape of the §5.4 table.
type DeploymentRow struct {
	Mode                   string // "parallel" or "sequential"
	Deployments, RanksEach int
	Wall                   time.Duration
	RankSeconds            float64
}

// Deployments is the §5.4 deployment-size table, plus the
// checkpoint-and-reload path: the candidate set reloaded onto four
// replica deployments of four ranks each.
type Deployments struct {
	Rows []DeploymentRow
	// ReloadVertices is the reloaded subgraph's size, ReloadWall the
	// replicas' time to search every prototype.
	ReloadVertices int
	ReloadWall     time.Duration
}

// DeploymentSizes searches WDC-3's prototypes over its pruned candidate set
// on deployments of varying width from a budget of 16 ranks: in parallel
// on replicated deployments (minimizing time-to-solution) or sequentially
// on one small deployment (minimizing aggregate CPU time).
func DeploymentSizes(quick bool) (*Deployments, error) {
	full, mcs, freq, err := searchWDC3(quick)
	if err != nil {
		return nil, err
	}
	var templates []*pattern.Template
	for _, p := range full.Set.Protos {
		templates = append(templates, p.Template)
	}

	out := &Deployments{}
	for _, c := range []DeploymentRow{
		{Mode: "parallel", Deployments: 1, RanksEach: 16}, {Mode: "parallel", Deployments: 2, RanksEach: 8},
		{Mode: "parallel", Deployments: 4, RanksEach: 4}, {Mode: "parallel", Deployments: 8, RanksEach: 2},
		{Mode: "sequential", Deployments: 1, RanksEach: 4}, {Mode: "sequential", Deployments: 1, RanksEach: 2},
	} {
		res := dist.SearchPrototypesParallel(mcs, templates, c.Deployments, c.RanksEach, freq)
		c.Wall, c.RankSeconds = res.Wall, res.RankSeconds
		out.Rows = append(out.Rows, c)
	}
	// §4's reload-on-a-smaller-deployment flow end to end: checkpoint the
	// candidate set and reload it onto replica deployments, each its own
	// engine over the small subgraph.
	rs, err := dist.NewReplicaSet(WDC3.Data.Graph(quick), mcs, 4, dist.Config{Ranks: 4, RanksPerNode: 2})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	rs.Search(templates, freq, dist.Options{})
	out.ReloadWall = time.Since(start)
	out.ReloadVertices = rs.SubgraphSize()
	return out, nil
}
