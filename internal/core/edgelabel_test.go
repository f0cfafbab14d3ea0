package core

import (
	"context"
	"math/rand"
	"testing"

	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
	"approxmatch/internal/refmatch"
)

// randomEdgeLabeledGraph builds a random graph with labeled edges.
func randomEdgeLabeledGraph(rng *rand.Rand, n, m, labels, edgeLabels int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetLabel(graph.VertexID(v), graph.Label(rng.Intn(labels)))
	}
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdgeLabeled(graph.VertexID(u), graph.VertexID(v), graph.Label(rng.Intn(edgeLabels)))
		}
	}
	return b.Build()
}

// randomEdgeLabeledTemplate builds a template with some concrete edge-label
// requirements and some wildcards.
func randomEdgeLabeledTemplate(rng *rand.Rand, maxV, labels, edgeLabels int) *pattern.Template {
	base := randomTemplate(rng, maxV, labels)
	els := make([]pattern.Label, base.NumEdges())
	for i := range els {
		if rng.Intn(2) == 0 {
			els[i] = pattern.Wildcard
		} else {
			els[i] = pattern.Label(rng.Intn(edgeLabels))
		}
	}
	t, err := pattern.NewEdgeLabeled(base.Labels(), base.Edges(), els, nil)
	if err != nil {
		panic(err)
	}
	return t
}

func TestEdgeLabelSimple(t *testing.T) {
	// Two A-B edges, one labeled "friend" (1), one "enemy" (2); the
	// template demands "friend".
	b := graph.NewBuilder(4)
	b.SetLabel(0, 1)
	b.SetLabel(1, 2)
	b.SetLabel(2, 1)
	b.SetLabel(3, 2)
	b.AddEdgeLabeled(0, 1, 1) // friend
	b.AddEdgeLabeled(2, 3, 2) // enemy
	g := b.Build()
	tp, err := pattern.NewEdgeLabeled(
		[]pattern.Label{1, 2},
		[]pattern.Edge{{I: 0, J: 1}},
		[]pattern.Label{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(0)
	cfg.CountMatches = true
	res, err := Run(g, tp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solutions[0].MatchCount != 1 {
		t.Fatalf("count = %d, want 1", res.Solutions[0].MatchCount)
	}
	if res.Solutions[0].Verts.Get(2) || res.Solutions[0].Verts.Get(3) {
		t.Error("enemy edge matched a friend requirement")
	}
}

func TestEdgeLabelAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 12; trial++ {
		g := randomEdgeLabeledGraph(rng, 25, 70, 3, 2)
		tp := randomEdgeLabeledTemplate(rng, 4, 3, 2)
		checkAgainstOracle(t, g, tp, DefaultConfig(rng.Intn(2)))
	}
}

func TestEdgeLabelPrototypesCarryLabels(t *testing.T) {
	tp, err := pattern.NewEdgeLabeled(
		[]pattern.Label{1, 2, 3},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}},
		[]pattern.Label{7, 8, 9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(92))
	g := randomEdgeLabeledGraph(rng, 30, 90, 3, 12)
	res, err := Run(g, tp, DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for pi, p := range res.Set.Protos {
		if !p.Template.HasEdgeLabels() {
			t.Fatalf("proto %d lost edge labels", pi)
		}
		// Oracle comparison per prototype.
		wantVs, _ := refmatch.SolutionSubgraph(g, p.Template)
		for v := 0; v < g.NumVertices(); v++ {
			if res.Solutions[pi].Verts.Get(v) != wantVs[graph.VertexID(v)] {
				t.Errorf("proto %d vertex %d wrong", pi, v)
			}
		}
	}
}

func TestEdgeLabelUnlabeledGraphRejectsConcreteRequirement(t *testing.T) {
	// A graph built without edge labels carries the default label 0 on all
	// edges; a template demanding edge label 5 can never match, while one
	// demanding 0 behaves like the unlabeled search.
	rng := rand.New(rand.NewSource(93))
	g := randomGraph(rng, 20, 60, 2)
	demand5, err := pattern.NewEdgeLabeled(
		[]pattern.Label{0, 1}, []pattern.Edge{{I: 0, J: 1}},
		[]pattern.Label{5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, demand5, DefaultConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.UnionVertices().Any() {
		t.Error("edge label 5 matched an unlabeled graph")
	}
}

func TestFeatureCrossProduct(t *testing.T) {
	// Wildcards + edge labels + mandatory edges together, against the
	// oracle, bottom-up and top-down.
	rng := rand.New(rand.NewSource(120))
	for trial := 0; trial < 6; trial++ {
		g := randomEdgeLabeledGraph(rng, 25, 70, 3, 2)
		tp, err := pattern.NewEdgeLabeled(
			[]pattern.Label{0, pattern.Wildcard, 2, 1},
			[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 2, J: 3}, {I: 0, J: 3}},
			[]pattern.Label{pattern.Wildcard, 1, pattern.Wildcard, 0},
			[]bool{true, false, false, false})
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, g, tp, DefaultConfig(2))

		td, err := RunTopDownContext(context.Background(), g, tp, DefaultConfig(2), 1)
		if err != nil {
			t.Fatal(err)
		}
		bu, err := Run(g, tp, DefaultConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		wantFirst := -1
		for d := 0; d <= bu.Set.MaxDist && wantFirst < 0; d++ {
			for _, pi := range bu.Set.At(d) {
				if bu.Solutions[pi].Verts.Any() {
					wantFirst = d
					break
				}
			}
		}
		if td.FoundDist != wantFirst {
			t.Errorf("trial %d: top-down %d vs bottom-up %d", trial, td.FoundDist, wantFirst)
		}
	}
}

func TestFlipsWithEdgeLabelsAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	g := randomEdgeLabeledGraph(rng, 25, 70, 3, 2)
	tp, err := pattern.NewEdgeLabeled(
		[]pattern.Label{0, 1, 2},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}},
		[]pattern.Label{1, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(0)
	cfg.CountMatches = true
	res, err := MatchFlipsContext(context.Background(), g, tp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for fi, f := range res.Flips {
		if want := refmatch.Count(g, f.Template, false); res.Solutions[fi].MatchCount != want {
			t.Errorf("flip %d: count %d, want %d", fi, res.Solutions[fi].MatchCount, want)
		}
	}
}
