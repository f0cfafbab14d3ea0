package graph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"approxmatch/internal/bitvec"
)

// randomViewGraph builds a random simple graph, optionally edge-labeled.
func randomViewGraph(rng *rand.Rand, n, m, labels, edgeLabels int) *Graph {
	b := NewBuilder(0)
	for v := 0; v < n; v++ {
		b.AddVertex(Label(rng.Intn(labels)))
	}
	for i := 0; i < m; i++ {
		u, v := VertexID(rng.Intn(n)), VertexID(rng.Intn(n))
		if u == v {
			continue
		}
		if edgeLabels > 0 {
			b.AddEdgeLabeled(u, v, Label(rng.Intn(edgeLabels)))
		} else {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// symmetricKeepSlots builds a random symmetric slot predicate: an undirected
// edge's two directed slots are always kept or dropped together, as the
// View contract requires.
func symmetricKeepSlots(rng *rand.Rand, g *Graph) map[int64]bool {
	keep := make(map[int64]bool, g.NumDirectedEdges())
	for u := 0; u < g.NumVertices(); u++ {
		uid := VertexID(u)
		base := g.AdjOffset(uid)
		for i, w := range g.Neighbors(uid) {
			if uid > w {
				continue // decide once per undirected edge
			}
			k := rng.Intn(4) != 0 // drop ~25% of edges
			keep[base+int64(i)] = k
			if j := g.EdgeIndex(w, uid); j >= 0 {
				keep[g.AdjOffset(w)+int64(j)] = k
			}
		}
	}
	return keep
}

// keptList sets the vertices keep marks.
func keptList(keep []bool) *bitvec.Vector {
	verts := bitvec.New(len(keep))
	for v, k := range keep {
		if k {
			verts.Set(v)
		}
	}
	return verts
}

// slotBits sets the directed slots of g that keep accepts.
func slotBits(g *Graph, keep func(slot int64) bool) *bitvec.Vector {
	slots := bitvec.New(g.NumDirectedEdges())
	for s := 0; s < g.NumDirectedEdges(); s++ {
		if keep(int64(s)) {
			slots.Set(s)
		}
	}
	return slots
}

// TestViewRoundTripQuick is the remap round-trip property test: for random
// graphs, keep sets and symmetric slot drops, the view must (1) be a valid
// CSR graph, (2) preserve vertex and edge labels through the remap, (3) map
// ids old→new→old and new→old→new consistently, and (4) keep slot symmetry
// — the reverse of every kept view slot is kept and maps to the reverse of
// its original slot.
func TestViewRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		edgeLabels := 0
		if rng.Intn(2) == 0 {
			edgeLabels = 3
		}
		g := randomViewGraph(rng, n, 3*n, 4, edgeLabels)
		keepV := make([]bool, n)
		for v := range keepV {
			keepV[v] = rng.Intn(3) != 0
		}
		keepS := symmetricKeepSlots(rng, g)
		vw := NewView(g, keptList(keepV), slotBits(g, func(slot int64) bool { return keepS[slot] }))
		cg := vw.Graph()
		if err := cg.Validate(); err != nil {
			t.Logf("seed %d: view graph invalid: %v", seed, err)
			return false
		}
		if vw.NumVertices() != cg.NumVertices() {
			return false
		}

		// Vertex round trip + label preservation + monotone order.
		kept := 0
		for ov := 0; ov < n; ov++ {
			nv, ok := vw.NewVertex(VertexID(ov))
			if ok != keepV[ov] {
				return false
			}
			if !ok {
				continue
			}
			kept++
			if vw.OrigVertex(nv) != VertexID(ov) || cg.Label(nv) != g.Label(VertexID(ov)) {
				return false
			}
		}
		if kept != cg.NumVertices() {
			return false
		}
		for i := 1; i < len(vw.OrigVertices()); i++ {
			if vw.OrigVertices()[i-1] >= vw.OrigVertices()[i] {
				return false // remap must stay monotone
			}
		}

		// Slot round trip: every view slot maps to an original slot that
		// connects the same (remapped) endpoints with the same edge label,
		// and slot symmetry survives the extraction.
		if cg.HasEdgeLabels() != g.HasEdgeLabels() {
			return false
		}
		for nu := 0; nu < cg.NumVertices(); nu++ {
			nuid := VertexID(nu)
			base := int(cg.AdjOffset(nuid))
			for i, nw := range cg.Neighbors(nuid) {
				oslot := vw.OrigSlot(base + i)
				if !keepS[oslot] {
					return false
				}
				ou := vw.OrigVertex(nuid)
				ow := g.Neighbors(ou)[oslot-g.AdjOffset(ou)]
				if ow != vw.OrigVertex(nw) {
					return false
				}
				if g.HasEdgeLabels() && cg.EdgeLabelAt(nuid, i) != g.EdgeLabelAt(ou, int(oslot-g.AdjOffset(ou))) {
					return false
				}
				// Reverse slot must exist in the view and map to the
				// original reverse slot.
				j := cg.EdgeIndex(nw, nuid)
				if j < 0 {
					return false
				}
				rev := vw.OrigSlot(int(cg.AdjOffset(nw)) + j)
				if oj := g.EdgeIndex(ow, ou); oj < 0 || rev != g.AdjOffset(ow)+int64(oj) {
					return false
				}
			}
		}

		// Completeness: every original slot with both endpoints kept and the
		// slot kept must appear in the view.
		for ou := 0; ou < n; ou++ {
			ouid := VertexID(ou)
			base := g.AdjOffset(ouid)
			for i, ow := range g.Neighbors(ouid) {
				wantKept := keepV[ou] && keepV[ow] && keepS[base+int64(i)]
				if !wantKept {
					continue
				}
				nu, _ := vw.NewVertex(ouid)
				nw, _ := vw.NewVertex(ow)
				if cg.EdgeIndex(nu, nw) < 0 {
					return false
				}
			}
		}

		// OrigBits maps the view's whole vertex and slot sets back onto
		// exactly the kept vertices and the kept slots between them.
		allV, allS := bitvec.New(cg.NumVertices()), bitvec.New(cg.NumDirectedEdges())
		allV.SetAll()
		allS.SetAll()
		ov, os := vw.OrigBits(allV, allS)
		if !ov.Equal(keptList(keepV)) || os.Count() != cg.NumDirectedEdges() {
			return false
		}
		for ou := 0; ou < n; ou++ {
			for i, ow := range g.Neighbors(VertexID(ou)) {
				slot := g.AdjOffset(VertexID(ou)) + int64(i)
				if os.Get(int(slot)) != (keepV[ou] && keepV[ow] && keepS[slot]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestViewEmptyAndFull covers the degenerate keep sets: a keep-everything
// view reproduces the graph 1:1, and a keep-nothing view is empty.
func TestViewEmptyAndFull(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomViewGraph(rng, 30, 90, 3, 2)
	every := make([]bool, g.NumVertices())
	for v := range every {
		every[v] = true
	}
	allSlots := slotBits(g, func(int64) bool { return true })
	all := NewView(g, keptList(every), allSlots)
	if all.Graph().NumVertices() != g.NumVertices() || all.Graph().NumDirectedEdges() != g.NumDirectedEdges() {
		t.Fatalf("full view: %d/%d vertices, %d/%d slots",
			all.Graph().NumVertices(), g.NumVertices(),
			all.Graph().NumDirectedEdges(), g.NumDirectedEdges())
	}
	for s := 0; s < g.NumDirectedEdges(); s++ {
		if all.OrigSlot(s) != int64(s) {
			t.Fatalf("full view: slot %d maps to %d", s, all.OrigSlot(s))
		}
	}
	none := NewView(g, keptList(make([]bool, g.NumVertices())), allSlots)
	if none.Graph().NumVertices() != 0 || none.Graph().NumDirectedEdges() != 0 {
		t.Fatal("empty view not empty")
	}
	if err := none.Graph().Validate(); err != nil {
		t.Fatalf("empty view invalid: %v", err)
	}
}
