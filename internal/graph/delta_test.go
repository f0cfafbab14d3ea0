package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// deltaTestGraph builds a small labeled graph: a 5-cycle plus a chord.
func deltaTestGraph() *Graph {
	b := NewBuilder(6)
	for v := 0; v < 6; v++ {
		b.SetLabel(VertexID(v), Label(v%3))
	}
	for _, e := range [][2]VertexID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 2}} {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

func TestApplyDeltaBasic(t *testing.T) {
	g := deltaTestGraph()
	db := NewDeltaBuilder()
	db.InsertEdge(3, 5)
	db.DeleteEdge(2, 0) // reversed endpoint order on purpose
	db.RelabelVertex(4, 9)
	ng, changed, err := db.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := ng.Validate(); err != nil {
		t.Fatalf("mutated graph invalid: %v", err)
	}
	if !ng.HasEdge(3, 5) || !ng.HasEdge(5, 3) {
		t.Error("inserted edge (3,5) missing")
	}
	if ng.HasEdge(0, 2) || ng.HasEdge(2, 0) {
		t.Error("deleted edge (0,2) still present")
	}
	if ng.Label(4) != 9 {
		t.Errorf("Label(4) = %d, want 9", ng.Label(4))
	}
	if want := []VertexID{0, 2, 3, 4, 5}; !reflect.DeepEqual(changed, want) {
		t.Errorf("changed = %v, want %v", changed, want)
	}
	// The input graph is untouched.
	if g.Label(4) != 1 || !g.HasEdge(0, 2) || g.HasEdge(3, 5) {
		t.Error("ApplyDelta mutated its input graph")
	}
	if ng.NumEdges() != g.NumEdges() {
		t.Errorf("NumEdges = %d, want %d", ng.NumEdges(), g.NumEdges())
	}
}

func TestApplyDeltaEdgeLabels(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdgeLabeled(0, 1, 3)
	b.AddEdgeLabeled(1, 2, 4)
	g := b.Build()

	db := NewDeltaBuilder()
	db.InsertEdgeLabeled(2, 3, 7)
	db.InsertEdge(0, 3) // unlabeled insert into a labeled graph: default label
	db.DeleteEdge(0, 1)
	ng, _, err := db.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := ng.Validate(); err != nil {
		t.Fatal(err)
	}
	if !ng.HasEdgeLabels() {
		t.Fatal("edge labels lost across ApplyDelta")
	}
	if l, ok := ng.EdgeLabelBetween(2, 3); !ok || l != 7 {
		t.Errorf("EdgeLabelBetween(2,3) = %d,%t want 7,true", l, ok)
	}
	if l, ok := ng.EdgeLabelBetween(3, 2); !ok || l != 7 {
		t.Errorf("reverse slot label = %d,%t want 7,true", l, ok)
	}
	if l, ok := ng.EdgeLabelBetween(1, 2); !ok || l != 4 {
		t.Errorf("retained label = %d,%t want 4,true", l, ok)
	}
	if l, ok := ng.EdgeLabelBetween(0, 3); !ok || l != EdgeLabelDefault {
		t.Errorf("defaulted label = %d,%t want %d,true", l, ok, EdgeLabelDefault)
	}

	// Labeled insert into an edge-unlabeled graph must be rejected.
	plain := deltaTestGraph()
	db2 := NewDeltaBuilder()
	db2.InsertEdgeLabeled(3, 5, 2)
	if _, _, err := db2.Apply(plain); err == nil {
		t.Error("labeled insert into unlabeled graph: want error")
	}
	// ...but an explicitly-default label is fine.
	db3 := NewDeltaBuilder()
	db3.InsertEdgeLabeled(3, 5, EdgeLabelDefault)
	if _, _, err := db3.Apply(plain); err != nil {
		t.Errorf("default-labeled insert into unlabeled graph: %v", err)
	}
}

func TestApplyDeltaRejectsHostileBatches(t *testing.T) {
	g := deltaTestGraph()
	cases := []struct {
		name string
		d    Delta
	}{
		{"insert out of range", Delta{Insert: []Edge{{0, 99}}}},
		{"insert self loop", Delta{Insert: []Edge{{2, 2}}}},
		{"insert present", Delta{Insert: []Edge{{0, 1}}}},
		{"insert present reversed", Delta{Insert: []Edge{{1, 0}}}},
		{"insert duplicate", Delta{Insert: []Edge{{3, 5}, {5, 3}}}},
		{"delete out of range", Delta{Delete: []Edge{{99, 0}}}},
		{"delete self loop", Delta{Delete: []Edge{{1, 1}}}},
		{"delete absent", Delta{Delete: []Edge{{1, 4}}}},
		{"delete duplicate", Delta{Delete: []Edge{{0, 1}, {1, 0}}}},
		{"insert and delete same edge", Delta{Insert: []Edge{{3, 5}}, Delete: []Edge{{5, 3}}}},
		{"relabel out of range", Delta{Relabels: []Relabel{{V: 6, L: 1}}}},
		{"relabel twice", Delta{Relabels: []Relabel{{V: 2, L: 1}, {V: 2, L: 1}}}},
		{"labels without inserts", Delta{InsertLabels: []Label{1}}},
		{"mis-sized labels", Delta{Insert: []Edge{{3, 5}}, InsertLabels: []Label{1, 2}}},
	}
	for _, tc := range cases {
		if _, _, err := ApplyDelta(g, &tc.d); err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
	}
	// Errors leave the input graph untouched.
	if err := g.Validate(); err != nil {
		t.Fatalf("graph corrupted by rejected deltas: %v", err)
	}
}

func TestApplyDeltaEmpty(t *testing.T) {
	g := deltaTestGraph()
	ng, changed, err := ApplyDelta(g, &Delta{})
	if err != nil || ng != g || changed != nil {
		t.Errorf("empty delta: got (%p,%v,%v), want (%p,nil,nil)", ng, changed, err, g)
	}
}

// TestApplyDeltaRandomizedDifferential checks ApplyDelta against a
// from-scratch Builder on random mutation batches.
func TestApplyDeltaRandomizedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 30; round++ {
		n := 8 + rng.Intn(16)
		edgeLabeled := rng.Intn(2) == 0
		b := NewBuilder(n)
		for v := 0; v < n; v++ {
			b.SetLabel(VertexID(v), Label(rng.Intn(4)))
		}
		present := make(map[Edge]Label)
		for tries := 0; tries < 3*n; tries++ {
			u, v := VertexID(rng.Intn(n)), VertexID(rng.Intn(n))
			if u == v {
				continue
			}
			e := normEdge(Edge{u, v})
			if _, ok := present[e]; ok {
				continue
			}
			l := EdgeLabelDefault
			if edgeLabeled {
				l = Label(rng.Intn(3))
				b.AddEdgeLabeled(e.U, e.V, l)
			} else {
				b.AddEdge(e.U, e.V)
			}
			present[e] = l
		}
		g := b.Build()

		// Random valid delta.
		db := NewDeltaBuilder()
		inserted, deleted := make(map[Edge]Label), make(map[Edge]bool)
		for tries := 0; tries < n; tries++ {
			u, v := VertexID(rng.Intn(n)), VertexID(rng.Intn(n))
			if u == v {
				continue
			}
			e := normEdge(Edge{u, v})
			_, have := present[e]
			_, ins := inserted[e]
			if have && !deleted[e] && !ins && rng.Intn(2) == 0 {
				db.DeleteEdge(e.U, e.V)
				deleted[e] = true
			} else if !have && !ins && !deleted[e] {
				l := EdgeLabelDefault
				if edgeLabeled {
					l = Label(rng.Intn(3))
					db.InsertEdgeLabeled(e.U, e.V, l)
				} else {
					db.InsertEdge(e.U, e.V)
				}
				inserted[e] = l
			}
		}
		relabels := make(map[VertexID]Label)
		for i := 0; i < 2; i++ {
			v := VertexID(rng.Intn(n))
			if _, ok := relabels[v]; ok {
				continue
			}
			relabels[v] = Label(rng.Intn(4))
			db.RelabelVertex(v, relabels[v])
		}

		got, _, err := db.Apply(g)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("round %d: invalid result: %v", round, err)
		}

		// From-scratch reference.
		ref := NewBuilder(n)
		for v := 0; v < n; v++ {
			l := g.Label(VertexID(v))
			if nl, ok := relabels[VertexID(v)]; ok {
				l = nl
			}
			ref.SetLabel(VertexID(v), l)
		}
		addRef := func(e Edge, l Label) {
			if edgeLabeled {
				ref.AddEdgeLabeled(e.U, e.V, l)
			} else {
				ref.AddEdge(e.U, e.V)
			}
		}
		for e, l := range present {
			if !deleted[e] {
				addRef(e, l)
			}
		}
		for e, l := range inserted {
			addRef(e, l)
		}
		want := ref.Build()

		if !reflect.DeepEqual(got.offsets, want.offsets) ||
			!reflect.DeepEqual(got.adj, want.adj) ||
			!reflect.DeepEqual(got.labels, want.labels) ||
			!reflect.DeepEqual(got.edgeLabels, want.edgeLabels) {
			t.Fatalf("round %d: delta result differs from rebuilt graph", round)
		}
	}

	// Row-patch boundary cells: graphs of 200-255 vertices, some isolated,
	// under deltas on the first and last rows, on runs of adjacent rows, on
	// labels alone, and deltas that empty a row or fill an isolated one.
	for _, edgeLabeled := range []bool{false, true} {
		for _, relabeled := range []bool{false, true} {
			g := boundaryGraph(rng, 200+rng.Intn(56), edgeLabeled, relabeled)
			for _, c := range boundaryDeltas(g) {
				name := fmt.Sprintf("labeled=%t/relabeled=%t/%s", edgeLabeled, relabeled, c.name)
				t.Run(name, func(t *testing.T) { checkDeltaAgainstBuild(t, g, c.d) })
			}
		}
	}
}

// boundaryGraph is a random graph on n vertices whose vertex 0 is a hub and
// whose vertices 1, n-2 and every v ≡ 4 (mod 9) are isolated; relabeled
// puts it in degree order, which moves the isolated vertices to the end.
func boundaryGraph(rng *rand.Rand, n int, edgeLabeled, relabeled bool) *Graph {
	isolated := func(v int) bool { return v == 1 || v == n-2 || v%9 == 4 }
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetLabel(VertexID(v), Label(rng.Intn(4)))
	}
	for i := 0; i < 4*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if i < n/4 {
			u = 0
		}
		if isolated(u) || isolated(v) {
			continue
		}
		if edgeLabeled {
			b.AddEdgeLabeled(VertexID(u), VertexID(v), Label(1+rng.Intn(3)))
		} else {
			b.AddEdge(VertexID(u), VertexID(v))
		}
	}
	g := b.Build()
	if relabeled {
		g = RelabelByDegree(g)
	}
	return g
}

// namedDelta is one row-patch cell's delta.
type namedDelta struct {
	name string
	d    *Delta
}

// boundaryDeltas returns the deltas the row-patch cells apply to g.
func boundaryDeltas(g *Graph) []namedDelta {
	n := VertexID(g.NumVertices())
	// toggle deletes each edge that is present and inserts each that is
	// absent, skipping self loops and repeats.
	toggle := func(edges ...Edge) *Delta {
		db := NewDeltaBuilder()
		seen := map[Edge]bool{}
		for _, e := range edges {
			ce := normEdge(e)
			if ce.U == ce.V || seen[ce] {
				continue
			}
			seen[ce] = true
			switch {
			case g.HasEdge(ce.U, ce.V):
				db.DeleteEdge(e.U, e.V)
			case g.HasEdgeLabels():
				db.InsertEdgeLabeled(e.U, e.V, 1+(e.U+e.V)%3)
			default:
				db.InsertEdge(e.U, e.V)
			}
		}
		return db.Delta()
	}
	var adjacent []Edge
	for v := VertexID(0); v < 6; v++ {
		adjacent = append(adjacent, Edge{v, v + 1}, Edge{n - 2 - v, n - 1 - v}, Edge{v, n - 1 - v})
	}
	// emptyRows deletes every edge of each row in vs.
	emptyRows := func(vs ...VertexID) *Delta {
		var edges []Edge
		for _, v := range vs {
			for _, w := range g.Neighbors(v) {
				edges = append(edges, Edge{v, w})
			}
		}
		return toggle(edges...)
	}
	// fillIsolated joins every isolated vertex to vertices 0 and n-1.
	var fill []Edge
	for v := VertexID(0); v < n; v++ {
		if g.Degree(v) == 0 {
			fill = append(fill, Edge{v, 0}, Edge{n - 1, v})
		}
	}
	return []namedDelta{
		{"ends", toggle(Edge{0, n - 1}, Edge{0, 1}, Edge{n - 2, n - 1}, Edge{1, 2}, Edge{n - 3, n - 2})},
		{"adjacent", toggle(adjacent...)},
		{"relabel-only", &Delta{Relabels: []Relabel{{V: 0, L: 7}, {V: 1, L: 7}, {V: n - 2, L: 0}, {V: n - 1, L: 7}}}},
		{"empty-first-row", emptyRows(0)},
		{"empty-adjacent-rows", emptyRows(2, 3, n-1)},
		{"fill-isolated", toggle(fill...)},
		{"empty-and-fill", toggle(append(emptyRows(n/2).Delete, Edge{n / 2, n/2 + 1}, Edge{n / 2, n/2 - 1})...)},
	}
}

// checkDeltaAgainstBuild applies d to g and checks the result, array by
// array, against the graph a fresh Build makes of g's edit, and checks that
// g is bit-identical afterwards and shares no array with the result.
func checkDeltaAgainstBuild(t *testing.T, g *Graph, d *Delta) {
	t.Helper()
	before := *g
	before.offsets = slices.Clone(g.offsets)
	before.adj = slices.Clone(g.adj)
	before.labels = slices.Clone(g.labels)
	before.edgeLabels = slices.Clone(g.edgeLabels)
	before.toExt = slices.Clone(g.toExt)
	before.toInt = slices.Clone(g.toInt)

	got, changed, err := ApplyDelta(g, d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*g, before) {
		t.Fatal("ApplyDelta changed its input graph")
	}
	if &got.offsets[0] == &g.offsets[0] || &got.labels[0] == &g.labels[0] ||
		(len(got.adj) > 0 && len(g.adj) > 0 && &got.adj[0] == &g.adj[0]) {
		t.Fatal("the next epoch aliases an array of its input")
	}

	n := g.NumVertices()
	ref := NewBuilder(n)
	copy(ref.labels, g.labels)
	wantChanged := map[VertexID]bool{}
	for _, r := range d.Relabels {
		ref.SetLabel(r.V, r.L)
		wantChanged[r.V] = true
	}
	deleted := map[Edge]bool{}
	for _, e := range d.Delete {
		deleted[normEdge(e)] = true
		wantChanged[e.U], wantChanged[e.V] = true, true
	}
	add := func(e Edge, l Label) {
		if g.HasEdgeLabels() {
			ref.AddEdgeLabeled(e.U, e.V, l)
		} else {
			ref.AddEdge(e.U, e.V)
		}
	}
	for _, e := range g.Edges() {
		if !deleted[e] {
			l, _ := g.EdgeLabelBetween(e.U, e.V)
			add(e, l)
		}
	}
	for i, e := range d.Insert {
		add(e, insertLabel(d, i))
		wantChanged[e.U], wantChanged[e.V] = true, true
	}
	want := ref.Build()
	if !reflect.DeepEqual(got.offsets, want.offsets) || !reflect.DeepEqual(got.adj, want.adj) ||
		!reflect.DeepEqual(got.labels, want.labels) || !reflect.DeepEqual(got.edgeLabels, want.edgeLabels) {
		t.Fatal("delta result differs from rebuilt graph")
	}
	if !reflect.DeepEqual(got.toExt, g.toExt) || !reflect.DeepEqual(got.toInt, g.toInt) {
		t.Fatal("delta result lost the id permutation")
	}
	var wantList []VertexID
	for v := range wantChanged {
		wantList = append(wantList, v)
	}
	slices.Sort(wantList)
	if !reflect.DeepEqual(changed, wantList) {
		t.Fatalf("changed = %v, want %v", changed, wantList)
	}
}

func TestSnapshotStoreEpochsAndRetirement(t *testing.T) {
	st := NewSnapshotStore(deltaTestGraph())
	if st.Epoch() != 0 {
		t.Fatalf("initial epoch = %d, want 0", st.Epoch())
	}
	s0 := st.Acquire()

	db := NewDeltaBuilder()
	db.InsertEdge(3, 5)
	epoch, changed, err := st.Apply(db.Delta())
	if err != nil || epoch != 1 {
		t.Fatalf("Apply: epoch=%d err=%v, want 1,nil", epoch, err)
	}
	if len(changed) != 2 {
		t.Fatalf("changed = %v, want two vertices", changed)
	}
	// The pinned reader still sees epoch 0's graph.
	if s0.Graph().HasEdge(3, 5) {
		t.Error("pinned snapshot observed the mutation")
	}
	if st.Current().HasEdge(3, 5) == false {
		t.Error("current snapshot missing the mutation")
	}
	if st.Retired() != 0 {
		t.Errorf("Retired = %d before last reader released, want 0", st.Retired())
	}
	s0.Release()
	if st.Retired() != 1 {
		t.Errorf("Retired = %d after last reader released, want 1", st.Retired())
	}

	// A failing Apply publishes nothing.
	bad := &Delta{Insert: []Edge{{0, 1}}}
	if _, _, err := st.Apply(bad); err == nil {
		t.Fatal("hostile delta accepted")
	}
	if st.Epoch() != 1 {
		t.Errorf("epoch moved to %d on a rejected delta", st.Epoch())
	}

	// Bump republishes the same graph under a new epoch.
	g1 := st.Current()
	if e := st.Bump(); e != 2 {
		t.Errorf("Bump = %d, want 2", e)
	}
	if st.Current() != g1 {
		t.Error("Bump changed the graph")
	}
	// The unread epoch-1 snapshot retires on the spot.
	if st.Retired() != 2 {
		t.Errorf("Retired = %d after bump, want 2", st.Retired())
	}
}

// TestSnapshotStoreConcurrentReaders hammers Acquire/Release against a
// writer applying deltas; run under -race via make check. Every reader must
// observe a self-consistent epoch (graph validity plus a stable edge count
// within one snapshot).
func TestSnapshotStoreConcurrentReaders(t *testing.T) {
	st := NewSnapshotStore(deltaTestGraph())
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := st.Acquire()
				m := s.Graph().NumEdges()
				for i := 0; i < 10; i++ {
					if got := s.Graph().NumEdges(); got != m {
						t.Errorf("edge count changed mid-snapshot: %d -> %d", m, got)
					}
				}
				s.Release()
			}
		}()
	}
	for i := 0; i < 50; i++ {
		db := NewDeltaBuilder()
		db.InsertEdge(3, 5)
		if _, _, err := st.Apply(db.Delta()); err != nil {
			t.Error(err)
		}
		db2 := NewDeltaBuilder()
		db2.DeleteEdge(3, 5)
		if _, _, err := st.Apply(db2.Delta()); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
	if st.Epoch() != 100 {
		t.Errorf("epoch = %d, want 100", st.Epoch())
	}
}

// TestTopologyBytesCountsEdgeLabels is the regression test for the
// accounting bug where the edge-label array was omitted from the topology
// footprint: an edge-labeled graph must report exactly 4 bytes per directed
// slot more than its unlabeled twin.
func TestTopologyBytesCountsEdgeLabels(t *testing.T) {
	plain := NewBuilder(4)
	plain.AddEdge(0, 1)
	plain.AddEdge(1, 2)
	plain.AddEdge(2, 3)
	pg := plain.Build()

	labeled := NewBuilder(4)
	labeled.AddEdgeLabeled(0, 1, 1)
	labeled.AddEdgeLabeled(1, 2, 2)
	labeled.AddEdgeLabeled(2, 3, 3)
	lg := labeled.Build()

	want := pg.TopologyBytes() + int64(lg.NumDirectedEdges())*4
	if got := lg.TopologyBytes(); got != want {
		t.Errorf("TopologyBytes = %d, want %d (unlabeled %d + %d slots * 4)",
			got, want, pg.TopologyBytes(), lg.NumDirectedEdges())
	}
}
