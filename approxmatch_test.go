package approxmatch

import (
	"strings"
	"testing"
)

// buildToyGraph returns a small labeled graph containing one exact triangle
// (1-2-3) and one approximate one missing an edge.
func buildToyGraph() *Graph {
	b := NewGraphBuilder(0)
	// Exact instance.
	a0 := b.AddVertex(1)
	a1 := b.AddVertex(2)
	a2 := b.AddVertex(3)
	b.AddEdge(a0, a1)
	b.AddEdge(a1, a2)
	b.AddEdge(a0, a2)
	// Approximate instance: missing the 1-3 edge.
	c0 := b.AddVertex(1)
	c1 := b.AddVertex(2)
	c2 := b.AddVertex(3)
	b.AddEdge(c0, c1)
	b.AddEdge(c1, c2)
	// Noise.
	n0 := b.AddVertex(9)
	b.AddEdge(n0, a0)
	return b.Build()
}

func triangleTemplate(t *testing.T) *Template {
	t.Helper()
	tp, err := NewTemplate([]Label{1, 2, 3},
		[]TemplateEdge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}})
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestMatchEndToEnd(t *testing.T) {
	g := buildToyGraph()
	tp := triangleTemplate(t)
	opts := DefaultOptions(1)
	opts.CountMatches = true
	res, err := Match(g, tp, opts)
	if err != nil {
		t.Fatal(err)
	}
	// 4 prototypes: triangle + 3 paths (distinct labels).
	if res.Set.Count() != 4 {
		t.Fatalf("prototypes = %d", res.Set.Count())
	}
	// The exact triangle's vertices match the base prototype.
	for v := VertexID(0); v < 3; v++ {
		if !res.Rho.Get(int(v), 0) {
			t.Errorf("vertex %d should match the base prototype", v)
		}
	}
	// The approximate instance matches only the path prototype missing the
	// 1-3 edge.
	if res.Rho.Get(3, 0) {
		t.Error("approximate instance must not match the exact template")
	}
	if len(res.MatchVector(3)) == 0 {
		t.Error("approximate instance should match some k=1 prototype")
	}
	// Noise vertex matches nothing.
	if len(res.MatchVector(6)) != 0 {
		t.Error("noise vertex matched")
	}
	if res.TotalMatchCount() <= 0 {
		t.Error("no matches counted")
	}
}

func TestExploreEndToEnd(t *testing.T) {
	// Graph has only the approximate instance: exploration must relax to
	// k=1 before finding it.
	b := NewGraphBuilder(0)
	c0 := b.AddVertex(1)
	c1 := b.AddVertex(2)
	c2 := b.AddVertex(3)
	b.AddEdge(c0, c1)
	b.AddEdge(c1, c2)
	g := b.Build()
	tp := triangleTemplate(t)
	res, err := Explore(g, tp, DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.FoundDist != 1 {
		t.Fatalf("FoundDist = %d, want 1", res.FoundDist)
	}
	if res.MatchingVertices.Count() != 3 {
		t.Errorf("matching vertices = %d", res.MatchingVertices.Count())
	}
}

func TestMatchDistributedAgrees(t *testing.T) {
	g := buildToyGraph()
	tp := triangleTemplate(t)
	seq, err := Match(g, tp, DefaultOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	e := NewDistEngine(g, DistConfig{Ranks: 3, RanksPerNode: 2})
	dres, err := MatchDistributed(e, tp, DistOptions{Config: Options{EditDistance: 1, WorkRecycling: true}})
	if err != nil {
		t.Fatal(err)
	}
	for pi := range seq.Set.Protos {
		if !dres.Solutions[pi].Verts.Equal(seq.Solutions[pi].Verts) {
			t.Errorf("proto %d differs between engines", pi)
		}
	}
	if e.Stats.Total() == 0 {
		t.Error("no messages accounted")
	}
}

func TestCountMotifsFacade(t *testing.T) {
	// K4: one 3-motif class (triangle ×4).
	b := NewGraphBuilder(4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdge(VertexID(i), VertexID(j))
		}
	}
	g := b.Build()
	counts, err := CountMotifs(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != 4 {
		t.Errorf("K4 3-motif occurrences = %d, want 4", total)
	}
	pats, err := MotifPatterns(3)
	if err != nil {
		t.Fatal(err)
	}
	if pats.Count() != 2 {
		t.Errorf("3-vertex motif classes = %d, want 2", pats.Count())
	}
	for _, p := range pats.Protos {
		if _, ok := counts[p.Canon]; !ok {
			t.Errorf("pattern %q missing from counts", p.Canon)
		}
	}
}

func TestPrototypesFacade(t *testing.T) {
	tp := triangleTemplate(t)
	set, err := Prototypes(tp, 1)
	if err != nil {
		t.Fatal(err)
	}
	if set.Count() != 4 || set.MaxDist != 1 {
		t.Errorf("set = %d protos, maxdist %d", set.Count(), set.MaxDist)
	}
}

func TestMandatoryFacade(t *testing.T) {
	tp, err := NewTemplateWithMandatory(
		[]Label{1, 2, 3},
		[]TemplateEdge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}},
		[]bool{true, false, false})
	if err != nil {
		t.Fatal(err)
	}
	set, err := Prototypes(tp, 2)
	if err != nil {
		t.Fatal(err)
	}
	if set.Count() != 3 {
		t.Errorf("mandatory prototypes = %d, want 3", set.Count())
	}
}

func TestWildcardFacade(t *testing.T) {
	b := NewGraphBuilder(0)
	v0 := b.AddVertex(1)
	v1 := b.AddVertex(42) // arbitrary middle label
	v2 := b.AddVertex(3)
	b.AddEdge(v0, v1)
	b.AddEdge(v1, v2)
	g := b.Build()
	tpl, err := NewTemplate([]Label{1, Wildcard, 3},
		[]TemplateEdge{{I: 0, J: 1}, {I: 1, J: 2}})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(0)
	opts.CountMatches = true
	res, err := Match(g, tpl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMatchCount() != 1 {
		t.Errorf("wildcard match count = %d", res.TotalMatchCount())
	}
}

func TestEdgeLabeledFacade(t *testing.T) {
	b := NewGraphBuilder(0)
	v0 := b.AddVertex(1)
	v1 := b.AddVertex(2)
	v2 := b.AddVertex(2)
	b.AddEdgeLabeled(v0, v1, 7)
	b.AddEdgeLabeled(v0, v2, 8)
	g := b.Build()
	tpl, err := NewTemplateEdgeLabeled([]Label{1, 2},
		[]TemplateEdge{{I: 0, J: 1}}, []Label{7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(0)
	opts.CountMatches = true
	res, err := Match(g, tpl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMatchCount() != 1 {
		t.Errorf("edge-labeled match count = %d", res.TotalMatchCount())
	}
	if res.Rho.Get(int(v2), 0) {
		t.Error("vertex on wrong-label edge matched")
	}
}

func TestReplicaSetFacade(t *testing.T) {
	g := buildToyGraph()
	tpl := triangleTemplate(t)
	res, err := Match(g, tpl, DefaultOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := NewReplicaSet(g, res.Candidate, 2, DistConfig{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	var templates []*Template
	for _, p := range res.Set.Protos {
		templates = append(templates, p.Template)
	}
	sols := rs.Search(templates, nil, DistOptions{})
	for pi := range templates {
		if !sols[pi].Verts.Equal(res.Solutions[pi].Verts) {
			t.Errorf("replica result %d differs from pipeline", pi)
		}
	}
}

func TestFeatureExportFacade(t *testing.T) {
	g := buildToyGraph()
	tpl := triangleTemplate(t)
	res, err := Match(g, tpl, DefaultOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteFeaturesCSV(&sb, FeatureOptions{OnlyMatching: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "vertex,p0") {
		t.Errorf("csv header: %q", sb.String()[:20])
	}
	counts := res.ParticipationCounts(0)
	if counts[0] == 0 {
		t.Error("vertex 0 should participate in the exact triangle")
	}
}
