package core

import (
	"context"
	"math/rand"
	"testing"

	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
	"approxmatch/internal/refmatch"
)

func TestSingleVertexTemplate(t *testing.T) {
	b := graph.NewBuilder(4)
	b.SetLabel(0, 7)
	b.SetLabel(1, 7)
	b.SetLabel(2, 8)
	b.SetLabel(3, 7)
	b.AddEdge(0, 1)
	g := b.Build()
	tp := pattern.MustNew([]pattern.Label{7}, nil)
	cfg := DefaultConfig(0)
	cfg.CountMatches = true
	res, err := Run(g, tp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Set.Count() != 1 {
		t.Fatalf("prototypes = %d", res.Set.Count())
	}
	// Every label-7 vertex matches, including the isolated vertex 3.
	for _, v := range []int{0, 1, 3} {
		if !res.Solutions[0].Verts.Get(v) {
			t.Errorf("vertex %d should match", v)
		}
	}
	if res.Solutions[0].Verts.Get(2) {
		t.Error("vertex 2 has the wrong label")
	}
	if res.Solutions[0].MatchCount != 3 {
		t.Errorf("count = %d", res.Solutions[0].MatchCount)
	}
}

func TestEditDistanceZeroIsExactMatching(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 8; trial++ {
		g := randomGraph(rng, 30, 90, 3)
		tp := randomTemplate(rng, 4, 3)
		res, err := Run(g, tp, DefaultConfig(0))
		if err != nil {
			t.Fatal(err)
		}
		if res.Set.Count() != 1 {
			t.Fatalf("k=0 generated %d prototypes", res.Set.Count())
		}
		wantVs, _ := refmatch.SolutionSubgraph(g, tp)
		for v := 0; v < g.NumVertices(); v++ {
			if res.Solutions[0].Verts.Get(v) != wantVs[graph.VertexID(v)] {
				t.Errorf("trial %d: vertex %d wrong", trial, v)
			}
		}
	}
}

func TestEditDistanceBeyondDisconnection(t *testing.T) {
	// A path template disconnects on any removal: k=5 must behave as k=0.
	g := randomGraph(rand.New(rand.NewSource(62)), 20, 50, 3)
	tp := pattern.MustNew([]pattern.Label{0, 1, 2}, []pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}})
	res, err := Run(g, tp, DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Set.Count() != 1 || res.Set.MaxDist != 0 {
		t.Fatalf("count=%d maxdist=%d", res.Set.Count(), res.Set.MaxDist)
	}
}

func TestEmptyAndEdgelessGraphs(t *testing.T) {
	tp := pattern.MustNew([]pattern.Label{0, 1}, []pattern.Edge{{I: 0, J: 1}})
	// Empty graph.
	empty := graph.NewBuilder(0).Build()
	res, err := Run(empty, tp, DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.UnionVertices().Any() {
		t.Error("matches in an empty graph")
	}
	// Edgeless graph with matching labels.
	b := graph.NewBuilder(3)
	b.SetLabel(0, 0)
	b.SetLabel(1, 1)
	edgeless := b.Build()
	res, err = Run(edgeless, tp, DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.UnionVertices().Any() {
		t.Error("matches without edges")
	}
}

func TestAllMandatoryTemplate(t *testing.T) {
	// Every edge mandatory: P_k is just the base template at any k.
	tp, err := pattern.NewWithMandatory(
		[]pattern.Label{0, 1, 2},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}},
		[]bool{true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	g := randomGraph(rand.New(rand.NewSource(63)), 30, 90, 3)
	res, err := Run(g, tp, DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Set.Count() != 1 {
		t.Fatalf("all-mandatory template produced %d prototypes", res.Set.Count())
	}
	wantVs, _ := refmatch.SolutionSubgraph(g, tp)
	for v := 0; v < g.NumVertices(); v++ {
		if res.Solutions[0].Verts.Get(v) != wantVs[graph.VertexID(v)] {
			t.Errorf("vertex %d wrong", v)
		}
	}
}

func TestHighFrequencyLabels(t *testing.T) {
	// Stress: a single-label graph and template (everything is a
	// candidate; repeated labels force TDS verification).
	rng := rand.New(rand.NewSource(64))
	g := randomGraph(rng, 25, 70, 1)
	tp := pattern.MustNew([]pattern.Label{0, 0, 0},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}})
	checkAgainstOracle(t, g, tp, DefaultConfig(1))
}

func TestDenseMatchRegion(t *testing.T) {
	// A clique of one label: every triple matches the unlabeled triangle;
	// counts must be exact (n·(n-1)·(n-2) mappings).
	n := 9
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(graph.VertexID(i), graph.VertexID(j))
		}
	}
	g := b.Build()
	tp := pattern.MustNew(make([]pattern.Label, 3),
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}})
	cfg := DefaultConfig(1)
	cfg.CountMatches = true
	res, err := Run(g, tp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(n * (n - 1) * (n - 2))
	if res.Solutions[0].MatchCount != want {
		t.Errorf("triangle mappings = %d, want %d", res.Solutions[0].MatchCount, want)
	}
}

func TestStateInvariants(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(65)), 20, 50, 2)
	s := NewFullState(g)
	if s.NumActiveVertices() != g.NumVertices() {
		t.Fatal("full state not full")
	}
	if s.NumActiveDirectedEdges() != g.NumDirectedEdges() {
		t.Fatal("full edges not full")
	}
	// Deactivating a vertex kills its outgoing slots; traversal helpers
	// must never yield it.
	s.DeactivateVertex(0)
	if s.VertexActive(0) {
		t.Fatal("vertex still active")
	}
	s.ForEachActiveNeighbor(1, func(_ int, w graph.VertexID) {
		if w == 0 {
			t.Fatal("dead neighbor yielded")
		}
	})
	// Edge deactivation is symmetric.
	if g.Degree(1) > 0 {
		s2 := NewFullState(g)
		w := g.Neighbors(1)[0]
		s2.DeactivateEdgeAt(1, 0)
		if s2.EdgeActiveBetween(w, 1) || s2.EdgeActiveBetween(1, w) {
			t.Fatal("edge deactivation not symmetric")
		}
	}
	// Clone independence.
	c := s.Clone()
	c.DeactivateVertex(2)
	if !s.VertexActive(2) {
		t.Fatal("clone aliases original")
	}
}

func TestExactMatchStandalone(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	for trial := 0; trial < 6; trial++ {
		g := randomGraph(rng, 30, 90, 3)
		tp := randomTemplate(rng, 4, 3)
		sol, m := ExactMatch(g, tp, true, true)
		if want := refmatch.Count(g, tp, false); sol.MatchCount != want {
			t.Errorf("trial %d: count %d, want %d", trial, sol.MatchCount, want)
		}
		if m.PrototypesSearched != 1 {
			t.Errorf("searched %d templates", m.PrototypesSearched)
		}
	}
}

func TestFinalizeExactFromLooseState(t *testing.T) {
	// FinalizeExact must reduce ANY recall-safe superset state to the
	// exact solution subgraph.
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 6; trial++ {
		g := randomGraph(rng, 25, 70, 3)
		tp := randomTemplate(rng, 4, 3)
		s := NewFullState(g) // the loosest possible superset
		var m Metrics
		edges := FinalizeExact(context.Background(), s, tp, &m)
		wantVs, wantEs := refmatch.SolutionSubgraph(g, tp)
		for v := 0; v < g.NumVertices(); v++ {
			if s.VertexActive(graph.VertexID(v)) != wantVs[graph.VertexID(v)] {
				t.Errorf("trial %d: vertex %d wrong", trial, v)
			}
			base := int(g.AdjOffset(graph.VertexID(v)))
			for i, u := range g.Neighbors(graph.VertexID(v)) {
				a, b := graph.VertexID(v), u
				if a > b {
					a, b = b, a
				}
				if edges.Get(base+i) != wantEs[graph.Edge{U: a, V: b}] {
					t.Errorf("trial %d: edge (%d,%d) wrong", trial, v, u)
				}
			}
		}
	}
}

func TestPhaseTimingsRecorded(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	g := randomGraph(rng, 60, 200, 3)
	tp := pattern.MustNew([]pattern.Label{0, 1, 2},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}})
	res, err := Run(g, tp, DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.CandidateTime <= 0 {
		t.Error("no candidate time recorded")
	}
	if m.LCCTime <= 0 {
		t.Error("no LCC time recorded")
	}
	if m.NLCCTime <= 0 {
		t.Error("no NLCC time recorded (triangle has a cycle constraint)")
	}
	if m.VerifyTime <= 0 {
		t.Error("no verification time recorded")
	}
	if m.PhaseSummary() == "" {
		t.Error("empty phase summary")
	}
}
