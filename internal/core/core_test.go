package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
	"approxmatch/internal/refmatch"
	"approxmatch/internal/tle"
)

// randomGraph builds a random labeled graph.
func randomGraph(rng *rand.Rand, n, m, labels int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetLabel(graph.VertexID(v), graph.Label(rng.Intn(labels)))
	}
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(graph.VertexID(u), graph.VertexID(v))
		}
	}
	return b.Build()
}

// randomTemplate builds a small random connected labeled template.
func randomTemplate(rng *rand.Rand, maxV, labels int) *pattern.Template {
	n := 2 + rng.Intn(maxV-1)
	ls := make([]pattern.Label, n)
	for i := range ls {
		ls[i] = pattern.Label(rng.Intn(labels))
	}
	var edges []pattern.Edge
	for v := 1; v < n; v++ {
		edges = append(edges, pattern.Edge{I: rng.Intn(v), J: v})
	}
	for i := 0; i < rng.Intn(3); i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		e := pattern.Edge{I: a, J: b}
		dup := false
		for _, x := range edges {
			if x == e {
				dup = true
			}
		}
		if !dup {
			edges = append(edges, e)
		}
	}
	t, err := pattern.New(ls, edges)
	if err != nil {
		panic(err)
	}
	return t
}

// checkAgainstOracle verifies the pipeline's per-prototype solution
// subgraphs, match vector and counts against brute force.
func checkAgainstOracle(t *testing.T, g *graph.Graph, tp *pattern.Template, cfg Config) {
	t.Helper()
	cfg.CountMatches = true
	res, err := Run(g, tp, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for pi, p := range res.Set.Protos {
		sol := res.Solutions[pi]
		wantVs, wantEs := refmatch.SolutionSubgraph(g, p.Template)
		// Vertices: exact equality (precision + recall).
		for v := 0; v < g.NumVertices(); v++ {
			got := sol.Verts.Get(v)
			want := wantVs[graph.VertexID(v)]
			if got != want {
				t.Errorf("proto %d (δ=%d %v): vertex %d got=%v want=%v",
					pi, p.Dist, p.Template, v, got, want)
			}
			if res.Rho.Get(v, pi) != want {
				t.Errorf("proto %d: rho[%d] wrong", pi, v)
			}
		}
		// Edges: every participating edge marked, nothing else.
		for v := 0; v < g.NumVertices(); v++ {
			base := int(g.AdjOffset(graph.VertexID(v)))
			for i, u := range g.Neighbors(graph.VertexID(v)) {
				a, b := graph.VertexID(v), u
				if a > b {
					a, b = b, a
				}
				want := wantEs[graph.Edge{U: a, V: b}]
				got := sol.Edges.Get(base + i)
				if got != want {
					t.Errorf("proto %d (δ=%d %v): edge (%d,%d) got=%v want=%v",
						pi, p.Dist, p.Template, v, u, got, want)
				}
			}
		}
		// Counts.
		if want := refmatch.Count(g, p.Template, false); sol.MatchCount != want {
			t.Errorf("proto %d (δ=%d %v): count=%d want=%d", pi, p.Dist, p.Template, sol.MatchCount, want)
		}
	}
}

func TestPipelineTinyKnownCase(t *testing.T) {
	// Graph: two triangles sharing vertex 2, labels 1-2-3 and 1-2 on the
	// second; template: labeled triangle, k=1.
	b := graph.NewBuilder(5)
	b.SetLabel(0, 1)
	b.SetLabel(1, 2)
	b.SetLabel(2, 3)
	b.SetLabel(3, 1)
	b.SetLabel(4, 2)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	b.AddEdge(4, 2)
	g := b.Build()
	tp := pattern.MustNew([]pattern.Label{1, 2, 3},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}})
	checkAgainstOracle(t, g, tp, DefaultConfig(1))
}

func TestPipelineRandomizedDefault(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(rng, 20+rng.Intn(30), 60+rng.Intn(60), 3)
		tp := randomTemplate(rng, 5, 3)
		k := rng.Intn(3)
		checkAgainstOracle(t, g, tp, DefaultConfig(k))
	}
}

func TestPipelineRandomizedAblations(t *testing.T) {
	// Every optimization toggle must preserve exactness.
	rng := rand.New(rand.NewSource(7))
	configs := []Config{
		{EditDistance: 2},
		{EditDistance: 2, WorkRecycling: true},
		{EditDistance: 2, FrequencyOrdering: true},
		{EditDistance: 2, LabelPairRefinement: true},
		{EditDistance: 2, WorkRecycling: true, FrequencyOrdering: true, LabelPairRefinement: true},
	}
	for trial := 0; trial < 8; trial++ {
		g := randomGraph(rng, 25, 70, 3)
		tp := randomTemplate(rng, 4, 3)
		for _, cfg := range configs {
			checkAgainstOracle(t, g, tp, cfg)
		}
	}
}

func TestPipelineQuickProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 15+rng.Intn(15), 40+rng.Intn(40), 3)
		tp := randomTemplate(rng, 4, 3)
		cfg := DefaultConfig(rng.Intn(2))
		cfg.CountMatches = true
		res, err := Run(g, tp, cfg)
		if err != nil {
			return false
		}
		for pi, p := range res.Set.Protos {
			if res.Solutions[pi].MatchCount != refmatch.Count(g, p.Template, false) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxCandidateSetIsSuperset(t *testing.T) {
	// M* must contain the solution subgraph of EVERY prototype.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(rng, 30, 90, 3)
		tp := randomTemplate(rng, 4, 3)
		var m Metrics
		mcs := MaxCandidateSet(g, tp, &m)
		res, err := Run(g, tp, DefaultConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		for pi := range res.Set.Protos {
			res.Solutions[pi].Verts.ForEach(func(v int) {
				if !mcs.VertexActive(graph.VertexID(v)) {
					t.Errorf("trial %d proto %d: matching vertex %d not in M*", trial, pi, v)
				}
			})
			res.Solutions[pi].Edges.ForEach(func(slot int) {
				if !mcs.EdgeBits().Get(slot) {
					t.Errorf("trial %d proto %d: matching edge slot %d not in M*", trial, pi, slot)
				}
			})
		}
	}
}

func TestContainmentRuleHolds(t *testing.T) {
	// Obs. 1: V*_{δ,p} ⊆ V*_{δ+1,c} for every child c.
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(rng, 30, 90, 3)
		tp := randomTemplate(rng, 4, 3)
		res, err := Run(g, tp, DefaultConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		for pi, p := range res.Set.Protos {
			for _, ci := range p.Children {
				child := res.Solutions[ci].Verts
				res.Solutions[pi].Verts.ForEach(func(v int) {
					if !child.Get(v) {
						t.Errorf("trial %d: containment violated: proto %d vertex %d not in child %d", trial, pi, v, ci)
					}
				})
			}
		}
	}
}

func TestMandatoryEdgesQuery(t *testing.T) {
	// RDT-1-style: mandatory core with optional attachments.
	tp, err := pattern.NewWithMandatory(
		[]pattern.Label{1, 2, 3},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}},
		[]bool{true, false, false},
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 6; trial++ {
		g := randomGraph(rng, 30, 90, 3)
		checkAgainstOracle(t, g, tp, DefaultConfig(1))
	}
}

func TestTopDownMatchesBottomUp(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(rng, 25, 60, 3)
		tp := randomTemplate(rng, 4, 3)
		cfg := DefaultConfig(2)
		bu, err := Run(g, tp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		td, err := RunTopDownContext(context.Background(), g, tp, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		// The first distance with matches must agree.
		wantFirst := -1
		for d := 0; d <= bu.Set.MaxDist; d++ {
			for _, pi := range bu.Set.At(d) {
				if bu.Solutions[pi].Verts.Any() {
					wantFirst = d
					break
				}
			}
			if wantFirst >= 0 {
				break
			}
		}
		if td.FoundDist != wantFirst {
			t.Errorf("trial %d: top-down found at %d, bottom-up at %d", trial, td.FoundDist, wantFirst)
		}
		if wantFirst >= 0 {
			// Per-prototype solutions at the found level must agree.
			for _, pi := range bu.Set.At(wantFirst) {
				if !td.Solutions[pi].Verts.Equal(bu.Solutions[pi].Verts) {
					t.Errorf("trial %d proto %d: top-down/bottom-up vertex sets differ", trial, pi)
				}
			}
		}
	}
}

func TestEnumerationExtensionMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(rng, 25, 70, 3)
		tp := randomTemplate(rng, 4, 3)
		res, err := Run(g, tp, DefaultConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		direct := CountAllMatches(res, nil)
		extended, err := CountAllMatchesExtended(res, nil)
		if err != nil {
			t.Fatal(err)
		}
		for pi := range direct {
			if direct[pi] != extended[pi] {
				t.Errorf("trial %d proto %d: direct=%d extended=%d", trial, pi, direct[pi], extended[pi])
			}
			if want := refmatch.Count(g, res.Set.Protos[pi].Template, false); direct[pi] != want {
				t.Errorf("trial %d proto %d: direct=%d oracle=%d", trial, pi, direct[pi], want)
			}
		}
	}
}

func TestWorkRecyclingReducesTokens(t *testing.T) {
	// On a cyclic template with shared constraints across prototypes, the
	// cache must strictly reduce initiated tokens.
	rng := rand.New(rand.NewSource(31))
	g := randomGraph(rng, 60, 240, 3)
	// 4-cycle with a pendant (Fig. 3b's shape): deleting the pendant edge
	// leaves the cycle intact, so the 4-Cycle CC is shared between levels.
	tp := pattern.MustNew([]pattern.Label{0, 1, 0, 1, 2},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 2, J: 3}, {I: 0, J: 3}, {I: 3, J: 4}})
	with := DefaultConfig(2)
	without := with
	without.WorkRecycling = false
	r1, err := Run(g, tp, with)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(g, tp, without)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Metrics.CacheHits == 0 {
		t.Error("expected cache hits with recycling enabled")
	}
	if r1.Metrics.TokensInitiated >= r2.Metrics.TokensInitiated {
		t.Errorf("recycling did not reduce tokens: with=%d without=%d",
			r1.Metrics.TokensInitiated, r2.Metrics.TokensInitiated)
	}
	// And identical results.
	for pi := range r1.Set.Protos {
		if !r1.Solutions[pi].Verts.Equal(r2.Solutions[pi].Verts) {
			t.Errorf("proto %d: recycling changed the result", pi)
		}
	}
}

func TestEmptyResultOnImpossibleLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 20, 40, 2) // labels 0,1 only
	tp := pattern.MustNew([]pattern.Label{7, 8}, []pattern.Edge{{I: 0, J: 1}})
	res, err := Run(g, tp, DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.UnionVertices().Any() {
		t.Error("impossible template produced matches")
	}
	if res.Candidate.NumActiveVertices() != 0 {
		t.Error("candidate set should be empty")
	}
}

func TestResultDerivedOutputs(t *testing.T) {
	b := graph.NewBuilder(3)
	b.SetLabel(0, 1)
	b.SetLabel(1, 2)
	b.SetLabel(2, 3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	tp := pattern.MustNew([]pattern.Label{1, 2, 3}, []pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}})
	cfg := DefaultConfig(1)
	cfg.CountMatches = true
	res, err := Run(g, tp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.MatchVector(1); len(got) != res.Set.Count() {
		t.Errorf("vertex 1 should match all %d prototypes, got %v", res.Set.Count(), got)
	}
	if res.LabelsGenerated() == 0 {
		t.Error("no labels generated")
	}
	if res.TotalMatchCount() <= 0 {
		t.Errorf("TotalMatchCount = %d", res.TotalMatchCount())
	}
	var count int
	res.EnumerateMatches(0, func(m []graph.VertexID) bool {
		count++
		return true
	})
	if int64(count) != res.Solutions[0].MatchCount {
		t.Errorf("enumerated %d, counted %d", count, res.Solutions[0].MatchCount)
	}
}

func TestRunParallelMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 6; trial++ {
		g := randomGraph(rng, 35, 100, 3)
		tp := randomTemplate(rng, 4, 3)
		cfg := DefaultConfig(2)
		cfg.CountMatches = true
		seq, err := Run(g, tp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		par, err := RunParallelContext(context.Background(), g, tp, cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		for pi := range seq.Set.Protos {
			if !par.Solutions[pi].Verts.Equal(seq.Solutions[pi].Verts) {
				t.Errorf("trial %d proto %d: vertex sets differ", trial, pi)
			}
			if !par.Solutions[pi].Edges.Equal(seq.Solutions[pi].Edges) {
				t.Errorf("trial %d proto %d: edge sets differ", trial, pi)
			}
			if par.Solutions[pi].MatchCount != seq.Solutions[pi].MatchCount {
				t.Errorf("trial %d proto %d: counts differ", trial, pi)
			}
		}
	}
}

func TestThreeWayMatcherAgreement(t *testing.T) {
	// Constraint pipeline vs brute-force oracle vs TLE baseline: three
	// independent matchers, one answer.
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 8; trial++ {
		g := randomGraph(rng, 30, 90, 3)
		tp := randomTemplate(rng, 4, 3)
		sol, _ := ExactMatch(g, tp, true, true)
		want := refmatch.Count(g, tp, false)
		tleCount, _, err := tle.CountTemplate(g, tp, tle.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if sol.MatchCount != want || tleCount != want {
			t.Errorf("trial %d: pipeline=%d oracle=%d tle=%d",
				trial, sol.MatchCount, want, tleCount)
		}
	}
}
