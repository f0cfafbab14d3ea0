package graph

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"approxmatch/internal/bitvec"
)

func triangleWithTail(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(4)
	b.SetLabel(0, 1)
	b.SetLabel(1, 2)
	b.SetLabel(2, 3)
	b.SetLabel(3, 2)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(2, 3)
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	g := triangleWithTail(t)
	if g.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Degree(2) != 3 {
		t.Fatalf("Degree(2) = %d", g.Degree(2))
	}
	if !g.HasEdge(0, 2) || !g.HasEdge(2, 0) {
		t.Fatal("edge (0,2) missing")
	}
	if g.HasEdge(0, 3) {
		t.Fatal("phantom edge (0,3)")
	}
	if g.Label(3) != 2 {
		t.Fatalf("Label(3) = %d", g.Label(3))
	}
}

func TestBuilderDedupAndSelfLoops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate in reverse
	b.AddEdge(0, 1) // exact duplicate
	b.AddEdge(2, 2) // self loop, dropped
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEdgesEnumeration(t *testing.T) {
	g := triangleWithTail(t)
	edges := g.Edges()
	if len(edges) != 4 {
		t.Fatalf("Edges returned %d, want 4", len(edges))
	}
	for _, e := range edges {
		if e.U >= e.V {
			t.Errorf("edge %v not canonical", e)
		}
		if !g.HasEdge(e.U, e.V) {
			t.Errorf("edge %v not in graph", e)
		}
	}
}

func TestLabelFrequencies(t *testing.T) {
	g := triangleWithTail(t)
	freq := g.LabelFrequencies()
	if freq[1] != 1 || freq[2] != 2 || freq[3] != 1 {
		t.Fatalf("frequencies = %v", freq)
	}
}

func TestComputeStats(t *testing.T) {
	g := triangleWithTail(t)
	s := ComputeStats(g)
	if s.NumVertices != 4 || s.NumEdges != 4 || s.MaxDegree != 3 || s.NumLabels != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.AvgDegree != 2.0 {
		t.Fatalf("AvgDegree = %v", s.AvgDegree)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := triangleWithTail(t)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)
}

func TestBinaryRoundTrip(t *testing.T) {
	g := triangleWithTail(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader(make([]byte, 64))); err == nil {
		t.Fatal("expected error for bad magic")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := triangleWithTail(t)
	verts := bitvec.New(g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		if v != 3 {
			verts.Set(v)
		}
	}
	slots := bitvec.New(g.NumDirectedEdges())
	slots.SetAll()
	vw := NewView(g, verts, slots)
	sub, orig := vw.Graph(), vw.OrigVertices()
	if sub.NumVertices() != 3 || sub.NumEdges() != 3 {
		t.Fatalf("induced triangle: n=%d m=%d", sub.NumVertices(), sub.NumEdges())
	}
	if len(orig) != 3 {
		t.Fatalf("orig mapping = %v", orig)
	}
	for nv, ov := range orig {
		if sub.Label(VertexID(nv)) != g.Label(ov) {
			t.Errorf("label mismatch at %d", nv)
		}
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomGraphInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		b := NewBuilder(n)
		for v := 0; v < n; v++ {
			b.SetLabel(VertexID(v), Label(rng.Intn(4)))
		}
		m := rng.Intn(3 * n)
		for i := 0; i < m; i++ {
			b.AddEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)))
		}
		g := b.Build()
		if err := g.Validate(); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		// Round trip through both formats.
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			return false
		}
		g2, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return sameGraph(g, g2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func sameGraph(a, b *Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for v := 0; v < a.NumVertices(); v++ {
		if a.Label(VertexID(v)) != b.Label(VertexID(v)) {
			return false
		}
		na, nb := a.Neighbors(VertexID(v)), b.Neighbors(VertexID(v))
		if len(na) != len(nb) {
			return false
		}
		for i := range na {
			if na[i] != nb[i] {
				return false
			}
		}
	}
	return true
}

func assertSameGraph(t *testing.T, a, b *Graph) {
	t.Helper()
	if !sameGraph(a, b) {
		t.Fatalf("graphs differ:\n a: %v\n b: %v", ComputeStats(a), ComputeStats(b))
	}
}

func TestEdgeLabels(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdgeLabeled(0, 1, 7)
	b.AddEdgeLabeled(2, 1, 8)
	b.AddEdge(2, 3) // unlabeled edge in a labeled graph: default 0
	g := b.Build()
	if !g.HasEdgeLabels() {
		t.Fatal("HasEdgeLabels false")
	}
	if l, ok := g.EdgeLabelBetween(0, 1); !ok || l != 7 {
		t.Errorf("EdgeLabelBetween(0,1) = %d,%v", l, ok)
	}
	if l, ok := g.EdgeLabelBetween(1, 0); !ok || l != 7 {
		t.Errorf("reverse direction = %d,%v", l, ok)
	}
	if l, ok := g.EdgeLabelBetween(1, 2); !ok || l != 8 {
		t.Errorf("EdgeLabelBetween(1,2) = %d,%v", l, ok)
	}
	if l, ok := g.EdgeLabelBetween(2, 3); !ok || l != EdgeLabelDefault {
		t.Errorf("unlabeled edge = %d,%v", l, ok)
	}
	if _, ok := g.EdgeLabelBetween(0, 3); ok {
		t.Error("absent edge reported")
	}
	freq := g.EdgeLabelFrequencies()
	if freq[7] != 1 || freq[8] != 1 || freq[0] != 1 {
		t.Errorf("frequencies = %v", freq)
	}
	// Duplicate labeled adds: largest label wins deterministically.
	b2 := NewBuilder(2)
	b2.AddEdgeLabeled(0, 1, 3)
	b2.AddEdgeLabeled(1, 0, 9)
	g2 := b2.Build()
	if l, _ := g2.EdgeLabelBetween(0, 1); l != 9 {
		t.Errorf("duplicate resolution = %d, want 9", l)
	}
	// Unlabeled graphs stay zero-overhead.
	if NewBuilder(2).Build().HasEdgeLabels() {
		t.Error("unlabeled graph reports edge labels")
	}
}

func TestEdgeLabelIORoundTrips(t *testing.T) {
	b := NewBuilder(4)
	b.SetLabel(1, 5)
	b.AddEdgeLabeled(0, 1, 7)
	b.AddEdgeLabeled(1, 2, 8)
	b.AddEdgeLabeled(2, 3, 0)
	g := b.Build()

	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)
	if l, _ := g2.EdgeLabelBetween(0, 1); l != 7 {
		t.Errorf("text round trip lost edge label: %d", l)
	}

	buf.Reset()
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g3, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g3)
	if l, _ := g3.EdgeLabelBetween(1, 2); l != 8 {
		t.Errorf("binary round trip lost edge label: %d", l)
	}
	// Backward compatibility: unlabeled graphs still read.
	buf.Reset()
	plain := triangleWithTail(t)
	if err := WriteBinary(&buf, plain); err != nil {
		t.Fatal(err)
	}
	g4, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g4.HasEdgeLabels() {
		t.Error("plain graph gained edge labels")
	}
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder(7)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	// 5, 6 isolated
	g := b.Build()
	comp, count := ConnectedComponents(g)
	if count != 4 {
		t.Fatalf("components = %d, want 4", count)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Error("first component split")
	}
	if comp[3] != comp[4] || comp[3] == comp[0] {
		t.Error("second component wrong")
	}
	if comp[5] == comp[6] {
		t.Error("isolated vertices merged")
	}
	lc, orig := LargestComponent(g)
	if lc.NumVertices() != 3 || len(orig) != 3 {
		t.Errorf("largest component size = %d", lc.NumVertices())
	}
	if err := lc.Validate(); err != nil {
		t.Fatal(err)
	}
	// Empty graph.
	if _, count := ConnectedComponents(NewBuilder(0).Build()); count != 0 {
		t.Error("empty graph components != 0")
	}
}
