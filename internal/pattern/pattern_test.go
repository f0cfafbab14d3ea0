package pattern

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func path3() *Template {
	return MustNew([]Label{1, 2, 3}, []Edge{{0, 1}, {1, 2}})
}

func triangle() *Template {
	return MustNew([]Label{1, 2, 3}, []Edge{{0, 1}, {1, 2}, {0, 2}})
}

func clique(n int) *Template {
	labels := make([]Label, n)
	var edges []Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, Edge{i, j})
		}
	}
	return MustNew(labels, edges)
}

func TestNewValidation(t *testing.T) {
	if _, err := New([]Label{1, 2}, []Edge{{0, 0}}); err == nil {
		t.Error("self loop accepted")
	}
	if _, err := New([]Label{1, 2}, []Edge{{0, 1}, {1, 0}}); err == nil {
		t.Error("duplicate edge accepted")
	}
	if _, err := New([]Label{1, 2, 3}, []Edge{{0, 1}}); err == nil {
		t.Error("disconnected template accepted")
	}
	if _, err := New([]Label{1, 2}, []Edge{{0, 5}}); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := New(nil, nil); err == nil {
		t.Error("empty template accepted")
	}
	if _, err := New([]Label{7}, nil); err != nil {
		t.Errorf("single-vertex template rejected: %v", err)
	}
}

func TestTemplateAccessors(t *testing.T) {
	tp := triangle()
	if tp.NumVertices() != 3 || tp.NumEdges() != 3 {
		t.Fatalf("shape wrong: %v", tp)
	}
	if !tp.HasEdge(0, 2) || !tp.HasEdge(2, 0) {
		t.Error("HasEdge(0,2) false")
	}
	if tp.HasEdge(0, 0) {
		t.Error("HasEdge(0,0) true")
	}
	if tp.Degree(1) != 2 {
		t.Errorf("Degree(1) = %d", tp.Degree(1))
	}
	if id := tp.EdgeID(2, 0); id < 0 || tp.Edge(id) != (Edge{0, 2}) {
		t.Errorf("EdgeID(2,0) = %d", id)
	}
	if tp.EdgeID(1, 1) != -1 {
		t.Error("EdgeID for absent edge should be -1")
	}
}

func TestRemoveEdge(t *testing.T) {
	tp := triangle()
	sub, err := tp.RemoveEdge(0)
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumEdges() != 2 || sub.NumVertices() != 3 {
		t.Fatalf("RemoveEdge shape: %v", sub)
	}
	// Removing an edge from a path disconnects it.
	if _, err := path3().RemoveEdge(0); err == nil {
		t.Error("disconnecting removal accepted")
	}
}

func TestMandatoryEdges(t *testing.T) {
	tp, err := NewWithMandatory([]Label{1, 2, 3}, []Edge{{0, 1}, {1, 2}, {0, 2}}, []bool{true, false, false})
	if err != nil {
		t.Fatal(err)
	}
	if !tp.Mandatory(0) || tp.Mandatory(1) {
		t.Fatal("mandatory flags wrong")
	}
	if !tp.HasMandatory() {
		t.Fatal("HasMandatory false")
	}
	if _, err := tp.RemoveEdge(0); err == nil {
		t.Error("mandatory edge removal accepted")
	}
	if _, err := tp.RemoveEdge(1); err != nil {
		t.Errorf("optional removal rejected: %v", err)
	}
}

func TestTreeAndLabelAnalyses(t *testing.T) {
	if !path3().IsTree() || triangle().IsTree() {
		t.Error("IsTree wrong")
	}
	if path3().HasRepeatedLabels() {
		t.Error("path3 has distinct labels")
	}
	rep := MustNew([]Label{1, 2, 1}, []Edge{{0, 1}, {1, 2}})
	if !rep.HasRepeatedLabels() {
		t.Error("repeated labels not detected")
	}
	mult := rep.LabelMultiplicity()
	if len(mult[1]) != 2 || len(mult[2]) != 1 {
		t.Errorf("multiplicity = %v", mult)
	}
	pairs := triangle().LabelPairs()
	if len(pairs) != 3 || !pairs[[2]Label{1, 2}] {
		t.Errorf("label pairs = %v", pairs)
	}
}

func TestSimpleCyclesTriangle(t *testing.T) {
	cycles := triangle().SimpleCycles()
	if len(cycles) != 1 {
		t.Fatalf("triangle cycles = %v", cycles)
	}
	if len(cycles[0]) != 3 {
		t.Fatalf("cycle length = %d", len(cycles[0]))
	}
}

func TestSimpleCyclesCounts(t *testing.T) {
	// K4 has 4 triangles and 3 squares: 7 simple cycles.
	if got := len(clique(4).SimpleCycles()); got != 7 {
		t.Errorf("K4 simple cycles = %d, want 7", got)
	}
	// A tree has none.
	if got := len(path3().SimpleCycles()); got != 0 {
		t.Errorf("path cycles = %d, want 0", got)
	}
	// 4-cycle has exactly one.
	c4 := MustNew(make([]Label, 4), []Edge{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	if got := len(c4.SimpleCycles()); got != 1 {
		t.Errorf("C4 cycles = %d, want 1", got)
	}
}

func TestEdgeMonocyclic(t *testing.T) {
	if !triangle().EdgeMonocyclic() {
		t.Error("triangle should be edge-monocyclic")
	}
	if clique(4).EdgeMonocyclic() {
		t.Error("K4 should not be edge-monocyclic")
	}
	// Two triangles sharing only a vertex are edge-monocyclic.
	bowtie := MustNew(make([]Label, 5), []Edge{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}})
	if !bowtie.EdgeMonocyclic() {
		t.Error("bowtie should be edge-monocyclic")
	}
	// Two triangles sharing an edge (diamond) are not.
	diamond := MustNew(make([]Label, 4), []Edge{{0, 1}, {1, 2}, {0, 2}, {1, 3}, {2, 3}})
	if diamond.EdgeMonocyclic() {
		t.Error("diamond should not be edge-monocyclic")
	}
	pairs := CyclesSharingEdges(diamond.SimpleCycles(), 8)
	if len(pairs) == 0 {
		t.Error("diamond cycles share edges")
	}
}

func TestIsomorphicPositive(t *testing.T) {
	a := MustNew([]Label{1, 2, 3}, []Edge{{0, 1}, {1, 2}})
	b := MustNew([]Label{3, 2, 1}, []Edge{{2, 1}, {1, 0}})
	if !Isomorphic(a, b) {
		t.Error("relabeled paths should be isomorphic")
	}
	m := FindIsomorphism(a, b)
	if m == nil {
		t.Fatal("no mapping found")
	}
	for q := 0; q < 3; q++ {
		if a.Label(q) != b.Label(m[q]) {
			t.Errorf("mapping breaks labels at %d", q)
		}
	}
	for _, e := range a.Edges() {
		if !b.HasEdge(m[e.I], m[e.J]) {
			t.Errorf("mapping breaks edge %v", e)
		}
	}
}

func TestIsomorphicNegative(t *testing.T) {
	a := path3()
	b := triangle()
	if Isomorphic(a, b) {
		t.Error("path vs triangle")
	}
	c := MustNew([]Label{1, 2, 2}, []Edge{{0, 1}, {1, 2}})
	if Isomorphic(a, c) {
		t.Error("different label multisets")
	}
	// Same degree sequence, different structure: C6 vs two triangles is
	// impossible on one connected template, so use labeled distinction.
	d1 := MustNew([]Label{1, 1, 2, 2}, []Edge{{0, 1}, {1, 2}, {2, 3}})
	d2 := MustNew([]Label{1, 2, 1, 2}, []Edge{{0, 1}, {1, 2}, {2, 3}})
	if Isomorphic(d1, d2) {
		t.Error("label placement should distinguish paths")
	}
}

func TestCanonicalCodeAgreesWithIsomorphism(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomTemplate(rng)
		b := shuffleTemplate(rng, a)
		if CanonicalCode(a) != CanonicalCode(b) {
			t.Logf("isomorphic templates got different codes:\n a=%v\n b=%v", a, b)
			return false
		}
		c := randomTemplate(rng)
		sameCode := CanonicalCode(a) == CanonicalCode(c)
		iso := Isomorphic(a, c)
		if sameCode != iso {
			t.Logf("code/iso disagreement:\n a=%v\n c=%v (code=%v iso=%v)", a, c, sameCode, iso)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCountAutomorphisms(t *testing.T) {
	cases := []struct {
		t    *Template
		want int64
	}{
		{clique(3), 6},
		{clique(4), 24},
		{path3(), 1},
		{MustNew(make([]Label, 3), []Edge{{0, 1}, {1, 2}}), 2},                         // unlabeled path
		{MustNew(make([]Label, 4), []Edge{{0, 1}, {1, 2}, {2, 3}, {0, 3}}), 8},         // C4
		{MustNew([]Label{1, 0, 0, 0}, []Edge{{0, 1}, {0, 2}, {0, 3}}), 6},              // star, distinct center
		{MustNew([]Label{0, 1, 0}, []Edge{{0, 1}, {1, 2}, {0, 2}}), 2},                 // labeled triangle
		{MustNew(make([]Label, 4), []Edge{{0, 1}, {1, 2}, {0, 2}, {1, 3}, {2, 3}}), 4}, // diamond
	}
	for i, c := range cases {
		if got := CountAutomorphisms(c.t); got != c.want {
			t.Errorf("case %d: automorphisms = %d, want %d (%v)", i, got, c.want, c.t)
		}
	}
}

// randomTemplate builds a small random connected labeled template.
func randomTemplate(rng *rand.Rand) *Template {
	n := 2 + rng.Intn(4)
	labels := make([]Label, n)
	for i := range labels {
		labels[i] = Label(rng.Intn(3))
	}
	var edges []Edge
	// random spanning tree
	for v := 1; v < n; v++ {
		edges = append(edges, Edge{rng.Intn(v), v})
	}
	// extra random edges
	for i := 0; i < rng.Intn(3); i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		e := Edge{min(a, b), max(a, b)}
		dup := false
		for _, x := range edges {
			if x == e {
				dup = true
				break
			}
		}
		if !dup {
			edges = append(edges, e)
		}
	}
	t, err := New(labels, edges)
	if err != nil {
		panic(err)
	}
	return t
}

// shuffleTemplate returns an isomorphic copy of t under a random vertex
// permutation.
func shuffleTemplate(rng *rand.Rand, t *Template) *Template {
	n := t.NumVertices()
	perm := rng.Perm(n)
	labels := make([]Label, n)
	for q := 0; q < n; q++ {
		labels[perm[q]] = t.Label(q)
	}
	var edges []Edge
	for _, e := range t.Edges() {
		edges = append(edges, Edge{perm[e.I], perm[e.J]})
	}
	nt, err := New(labels, edges)
	if err != nil {
		panic(err)
	}
	return nt
}

func TestTemplateEdgeLabels(t *testing.T) {
	tp, err := NewEdgeLabeled(
		[]Label{1, 2, 3},
		[]Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}},
		[]Label{7, Wildcard, 9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !tp.HasEdgeLabels() {
		t.Fatal("HasEdgeLabels false")
	}
	if tp.EdgeLabel(0) != 7 || tp.EdgeLabel(1) != Wildcard || tp.EdgeLabel(2) != 9 {
		t.Error("edge labels wrong")
	}
	if l, ok := tp.EdgeLabelBetween(2, 0); !ok || l != 9 {
		t.Errorf("EdgeLabelBetween(2,0) = %d,%v", l, ok)
	}
	set, wild := tp.EdgeLabelSet()
	if !wild || !set[7] || !set[9] || set[8] {
		t.Errorf("EdgeLabelSet = %v wild=%v", set, wild)
	}
	// Restrict carries labels.
	sub, err := tp.Restrict(0b011)
	if err != nil {
		t.Fatal(err)
	}
	if sub.EdgeLabel(0) != 7 || sub.EdgeLabel(1) != Wildcard {
		t.Error("Restrict lost edge labels")
	}
	// Unlabeled templates return wildcard everywhere.
	plain := MustNew([]Label{1, 2}, []Edge{{I: 0, J: 1}})
	if plain.EdgeLabel(0) != Wildcard || plain.HasEdgeLabels() {
		t.Error("plain template edge label wrong")
	}
	// Length mismatch rejected.
	if _, err := NewEdgeLabeled([]Label{1, 2}, []Edge{{I: 0, J: 1}}, []Label{1, 2}, nil); err == nil {
		t.Error("edge label length mismatch accepted")
	}
}

func TestIsomorphismRespectsEdgeLabels(t *testing.T) {
	a, _ := NewEdgeLabeled([]Label{1, 1}, []Edge{{I: 0, J: 1}}, []Label{5}, nil)
	b, _ := NewEdgeLabeled([]Label{1, 1}, []Edge{{I: 0, J: 1}}, []Label{6}, nil)
	c, _ := NewEdgeLabeled([]Label{1, 1}, []Edge{{I: 0, J: 1}}, []Label{5}, nil)
	if Isomorphic(a, b) {
		t.Error("different edge labels reported isomorphic")
	}
	if !Isomorphic(a, c) {
		t.Error("equal edge labels not isomorphic")
	}
	if CanonicalCode(a) == CanonicalCode(b) {
		t.Error("canonical codes collide across edge labels")
	}
	if CanonicalCode(a) != CanonicalCode(c) {
		t.Error("canonical codes differ for identical templates")
	}
	// Automorphisms constrained by edge labels: a labeled path 5-6 has no
	// flip symmetry; 5-5 does.
	p56, _ := NewEdgeLabeled(make([]Label, 3), []Edge{{I: 0, J: 1}, {I: 1, J: 2}}, []Label{5, 6}, nil)
	p55, _ := NewEdgeLabeled(make([]Label, 3), []Edge{{I: 0, J: 1}, {I: 1, J: 2}}, []Label{5, 5}, nil)
	if CountAutomorphisms(p56) != 1 {
		t.Errorf("5-6 path automorphisms = %d", CountAutomorphisms(p56))
	}
	if CountAutomorphisms(p55) != 2 {
		t.Errorf("5-5 path automorphisms = %d", CountAutomorphisms(p55))
	}
}

func TestShapeConstructors(t *testing.T) {
	p := PathN([]Label{1, 2, 3, 4})
	if p.NumEdges() != 3 || !p.IsTree() {
		t.Errorf("PathN: %v", p)
	}
	c := CycleN(Unlabeled(5))
	if c.NumEdges() != 5 || c.IsTree() || len(c.SimpleCycles()) != 1 {
		t.Errorf("CycleN: %v", c)
	}
	s := StarN([]Label{9, 1, 1, 1})
	if s.Degree(0) != 3 || !s.IsTree() {
		t.Errorf("StarN: %v", s)
	}
	k := CliqueN(Unlabeled(4))
	if k.NumEdges() != 6 {
		t.Errorf("CliqueN: %v", k)
	}
	d := Diamond([4]Label{0, 0, 0, 0})
	if d.EdgeMonocyclic() {
		t.Error("Diamond should share cycle edges")
	}
	h := House([5]Label{0, 1, 2, 3, 4})
	if h.NumEdges() != 6 || h.NumVertices() != 5 {
		t.Errorf("House: %v", h)
	}
	// Panics on bad input.
	for _, fn := range []func(){
		func() { CycleN(Unlabeled(2)) },
		func() { StarN(Unlabeled(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
