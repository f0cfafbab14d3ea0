package graph

import (
	"math/bits"

	"approxmatch/internal/bitvec"
)

// View is a physically compacted copy of the active portion of a graph: a
// CSR over the kept vertices and kept directed edge slots, plus the remap
// tables connecting the two id spaces. It makes the paper's search-space
// reduction (Obs. 1) physical — kernels scanning a view touch only memory
// proportional to the active subgraph instead of skipping over the dead
// regions of the original CSR.
//
// Vertices are renumbered in increasing original-id order, so the remap is
// monotone: relative neighbor order, vertex scan order and u<v edge
// orientations are all preserved, which is what lets a search on the view
// replay the exact trajectory of the same search on the original graph.
type View struct {
	g    *Graph
	orig *Graph
	// origVerts maps a view vertex id to its original id (increasing).
	origVerts []VertexID
	// origSlots maps a view directed slot to its original slot.
	origSlots []int64
	// newVerts maps an original vertex id to its view id, -1 when dropped.
	newVerts []int32
}

// NewView extracts the compacted view of orig over the kept vertices set in
// verts and the directed slots set in slots whose far endpoint is kept too.
// It is the one way to cut a subgraph out of a graph: compaction, the
// derived match graphs, the §4 checkpoint and LargestComponent all use it.
// Only each kept vertex's set slots are read — a word scan of its adjacency
// range, so a pruned hub costs O(words + kept slots), not O(degree). slots
// must be symmetric (the slot (u,v) is set iff (v,u) is), as State's slot
// invariant guarantees; an asymmetric vector yields a view graph that fails
// Validate. The view graph is edge-labeled exactly when orig is.
func NewView(orig *Graph, verts, slots *bitvec.Vector) *View {
	n := orig.NumVertices()
	vw := &View{orig: orig, origVerts: make([]VertexID, 0, verts.Count()), newVerts: make([]int32, n)}
	for v := range vw.newVerts {
		vw.newVerts[v] = -1
	}
	verts.ForEach(func(ov int) {
		vw.newVerts[ov] = int32(len(vw.origVerts))
		vw.origVerts = append(vw.origVerts, VertexID(ov))
	})
	nn := len(vw.origVerts)

	// One pass: each kept vertex's surviving slots are emitted in original
	// adjacency order and the vertex remap is monotone, so the view
	// adjacency stays sorted.
	offsets := make([]int64, nn+1)
	adj := make([]VertexID, 0, slots.Count())
	vw.origSlots = make([]int64, 0, cap(adj))
	labels := make([]Label, nn)
	var edgeLabels []Label
	if orig.edgeLabels != nil {
		edgeLabels = make([]Label, 0, cap(adj))
	}
	for nv, ov := range vw.origVerts {
		labels[nv] = orig.labels[ov]
		ns := orig.Neighbors(ov)
		base := int(orig.offsets[ov])
		ws := slots.Words(base, base+len(ns))
		for ws.Next() {
			for w := ws.Word; w != 0; w &= w - 1 {
				slot := ws.Base + bits.TrailingZeros64(w)
				nw := vw.newVerts[ns[slot-base]]
				if nw < 0 {
					continue
				}
				adj = append(adj, VertexID(nw))
				vw.origSlots = append(vw.origSlots, int64(slot))
				if edgeLabels != nil {
					edgeLabels = append(edgeLabels, orig.edgeLabels[slot])
				}
			}
		}
		offsets[nv+1] = int64(len(adj))
	}
	vw.g = &Graph{offsets: offsets, adj: adj, labels: labels, edgeLabels: edgeLabels}
	return vw
}

// Graph returns the compacted graph.
func (vw *View) Graph() *Graph { return vw.g }

// NumVertices returns the number of kept vertices.
func (vw *View) NumVertices() int { return len(vw.origVerts) }

// OrigVertex maps a view vertex id back to its original id.
func (vw *View) OrigVertex(nv VertexID) VertexID { return vw.origVerts[nv] }

// NewVertex maps an original vertex id to its view id; ok is false when the
// vertex was dropped.
func (vw *View) NewVertex(ov VertexID) (VertexID, bool) {
	nv := vw.newVerts[ov]
	if nv < 0 {
		return 0, false
	}
	return VertexID(nv), true
}

// OrigSlot maps a view directed slot index back to its original slot index.
func (vw *View) OrigSlot(ns int) int64 { return vw.origSlots[ns] }

// OrigBits maps a view-space vertex vector and directed-slot vector back to
// fresh vectors over orig's vertices and directed slots — the one
// back-translation from a view's id space.
func (vw *View) OrigBits(verts, slots *bitvec.Vector) (*bitvec.Vector, *bitvec.Vector) {
	ov := bitvec.New(vw.orig.NumVertices())
	verts.ForEach(func(nv int) { ov.Set(int(vw.origVerts[nv])) })
	os := bitvec.New(vw.orig.NumDirectedEdges())
	slots.ForEach(func(ns int) { os.Set(int(vw.origSlots[ns])) })
	return ov, os
}

// OrigVertices returns the view-to-original vertex map, indexed by view id
// and increasing. The caller must not modify it.
func (vw *View) OrigVertices() []VertexID { return vw.origVerts }
