package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// Live-graph ingest: a Delta is a batch of edge insertions, edge deletions
// and vertex relabelings applied to an immutable CSR snapshot. ApplyDelta
// never mutates the input graph — it builds the next-epoch CSR in fresh
// arrays, copying the untouched rows across in runs and merging only the
// touched ones, and shares nothing mutable with the old one — so in-flight
// readers of the previous snapshot are unaffected (see snapshot.go for the
// epoch-swap machinery).
//
// The vertex set is fixed: deltas change edges and labels, never add or
// remove vertices. That keeps every per-vertex auxiliary structure sized by
// NumVertices (match vectors, NLCC caches, bitsets) valid across epochs.

// Relabel assigns a new label to an existing vertex.
type Relabel struct {
	V VertexID
	L Label
}

// Delta is a batch of mutations. Validation is strict: ApplyDelta rejects
// (with an error, never a panic or a partial application) out-of-range
// endpoints, self loops, inserting a present edge, deleting an absent edge,
// duplicate operations within the batch, an edge both inserted and deleted,
// conflicting relabels of one vertex, a mis-sized InsertLabels slice, and
// edge labels supplied for an edge-unlabeled graph.
type Delta struct {
	// Insert lists undirected edges to add (either endpoint order).
	Insert []Edge
	// InsertLabels, when non-empty, must have one edge label per Insert
	// entry. It may only carry non-default labels when the target graph has
	// edge labels; on an edge-labeled graph a nil InsertLabels means every
	// inserted edge gets EdgeLabelDefault.
	InsertLabels []Label
	// Delete lists undirected edges to remove (either endpoint order).
	Delete []Edge
	// Relabels lists vertex label changes.
	Relabels []Relabel
}

// Empty reports whether the delta carries no operations.
func (d *Delta) Empty() bool {
	return len(d.Insert) == 0 && len(d.Delete) == 0 && len(d.Relabels) == 0
}

// DeltaBuilder accumulates mutations into a Delta.
type DeltaBuilder struct {
	d       Delta
	labeled bool // an InsertEdgeLabeled call was seen
}

// NewDeltaBuilder returns an empty builder.
func NewDeltaBuilder() *DeltaBuilder { return &DeltaBuilder{} }

// InsertEdge records an edge insertion with the default edge label.
func (b *DeltaBuilder) InsertEdge(u, v VertexID) {
	b.d.Insert = append(b.d.Insert, Edge{u, v})
	if b.labeled {
		b.d.InsertLabels = append(b.d.InsertLabels, EdgeLabelDefault)
	}
}

// InsertEdgeLabeled records an edge insertion carrying an edge label.
func (b *DeltaBuilder) InsertEdgeLabeled(u, v VertexID, l Label) {
	if !b.labeled {
		// Backfill default labels for inserts recorded before the first
		// labeled one, so InsertLabels stays aligned with Insert.
		b.labeled = true
		b.d.InsertLabels = make([]Label, len(b.d.Insert))
	}
	b.d.Insert = append(b.d.Insert, Edge{u, v})
	b.d.InsertLabels = append(b.d.InsertLabels, l)
}

// DeleteEdge records an edge deletion.
func (b *DeltaBuilder) DeleteEdge(u, v VertexID) {
	b.d.Delete = append(b.d.Delete, Edge{u, v})
}

// RelabelVertex records a vertex label change.
func (b *DeltaBuilder) RelabelVertex(v VertexID, l Label) {
	b.d.Relabels = append(b.d.Relabels, Relabel{V: v, L: l})
}

// Delta returns the accumulated batch. The builder may keep being used; the
// returned Delta aliases its internal slices until the next mutation.
func (b *DeltaBuilder) Delta() *Delta { return &b.d }

// Apply is shorthand for ApplyDelta(g, b.Delta()).
func (b *DeltaBuilder) Apply(g *Graph) (*Graph, []VertexID, error) {
	return ApplyDelta(g, b.Delta())
}

func normEdge(e Edge) Edge {
	if e.U > e.V {
		e.U, e.V = e.V, e.U
	}
	return e
}

// validateDelta checks d against g. It performs no mutation.
func validateDelta(g *Graph, d *Delta) error {
	n := g.NumVertices()
	checkEdge := func(what string, e Edge) error {
		if int(e.U) >= n || int(e.V) >= n {
			return fmt.Errorf("graph: delta %s (%d,%d): endpoint out of range (n=%d)", what, e.U, e.V, n)
		}
		if e.U == e.V {
			return fmt.Errorf("graph: delta %s (%d,%d): self loop", what, e.U, e.V)
		}
		return nil
	}
	if len(d.InsertLabels) != 0 && len(d.InsertLabels) != len(d.Insert) {
		return fmt.Errorf("graph: delta has %d insert labels for %d inserts",
			len(d.InsertLabels), len(d.Insert))
	}
	ins := make(map[Edge]bool, len(d.Insert))
	for i, e := range d.Insert {
		if err := checkEdge("insert", e); err != nil {
			return err
		}
		ce := normEdge(e)
		if ins[ce] {
			return fmt.Errorf("graph: delta inserts edge (%d,%d) twice", ce.U, ce.V)
		}
		if g.HasEdge(ce.U, ce.V) {
			return fmt.Errorf("graph: delta inserts edge (%d,%d) already present", ce.U, ce.V)
		}
		if insertLabel(d, i) != EdgeLabelDefault && !g.HasEdgeLabels() {
			return fmt.Errorf("graph: delta inserts labeled edge (%d,%d) into an edge-unlabeled graph", ce.U, ce.V)
		}
		ins[ce] = true
	}
	del := make(map[Edge]bool, len(d.Delete))
	for _, e := range d.Delete {
		if err := checkEdge("delete", e); err != nil {
			return err
		}
		ce := normEdge(e)
		if del[ce] {
			return fmt.Errorf("graph: delta deletes edge (%d,%d) twice", ce.U, ce.V)
		}
		if ins[ce] {
			return fmt.Errorf("graph: delta both inserts and deletes edge (%d,%d)", ce.U, ce.V)
		}
		if !g.HasEdge(ce.U, ce.V) {
			return fmt.Errorf("graph: delta deletes edge (%d,%d) not present", ce.U, ce.V)
		}
		del[ce] = true
	}
	seen := make(map[VertexID]bool, len(d.Relabels))
	for _, r := range d.Relabels {
		if int(r.V) >= n {
			return fmt.Errorf("graph: delta relabels vertex %d out of range (n=%d)", r.V, n)
		}
		if seen[r.V] {
			return fmt.Errorf("graph: delta relabels vertex %d twice", r.V)
		}
		seen[r.V] = true
	}
	return nil
}

// insertLabel is the edge label of d.Insert[i].
func insertLabel(d *Delta, i int) Label {
	if len(d.InsertLabels) == 0 {
		return EdgeLabelDefault
	}
	return d.InsertLabels[i]
}

// rowEdit is one direction of an inserted or deleted edge: row v gains, or
// loses, neighbor w.
type rowEdit struct {
	v, w VertexID
	l    Label
	del  bool
}

// ApplyDelta validates d against g and, if valid, returns the next-epoch
// graph plus the sorted, deduplicated list of changed vertices (endpoints of
// inserted or deleted edges and relabeled vertices — the seed set for
// incremental re-matching). g is never modified; on error the returned
// graph is nil and g is untouched. An empty delta returns g itself.
//
// The next epoch is g with its touched rows patched. The edits are sorted
// once by (row, neighbor); every row between two touched ones keeps its
// neighbors and moves by the running change in degree, so each run of
// untouched rows is one copy of the adjacency (and edge labels), and only a
// touched row is merged with its edits. The cost is the touched rows plus
// one memmove of g's arrays; no step probes a map per vertex or per edge.
func ApplyDelta(g *Graph, d *Delta) (*Graph, []VertexID, error) {
	if err := validateDelta(g, d); err != nil {
		return nil, nil, err
	}
	if d.Empty() {
		return g, nil, nil
	}
	edits := make([]rowEdit, 0, 2*(len(d.Insert)+len(d.Delete)))
	for i, e := range d.Insert {
		l := insertLabel(d, i)
		edits = append(edits, rowEdit{v: e.U, w: e.V, l: l}, rowEdit{v: e.V, w: e.U, l: l})
	}
	for _, e := range d.Delete {
		edits = append(edits, rowEdit{v: e.U, w: e.V, del: true}, rowEdit{v: e.V, w: e.U, del: true})
	}
	slices.SortFunc(edits, func(a, b rowEdit) int {
		if c := cmp.Compare(a.v, b.v); c != 0 {
			return c
		}
		return cmp.Compare(a.w, b.w)
	})

	n := g.NumVertices()
	m := len(g.adj) + 2*(len(d.Insert)-len(d.Delete))
	ng := &Graph{
		offsets: make([]int64, n+1),
		adj:     make([]VertexID, m),
		labels:  slices.Clone(g.labels),
		// The vertex set is fixed, so the id permutation survives deltas
		// unchanged; epochs share the tables with the base graph.
		toExt: g.toExt,
		toInt: g.toInt,
	}
	if g.HasEdgeLabels() {
		ng.edgeLabels = make([]Label, m)
	}
	for _, r := range d.Relabels {
		ng.labels[r.V] = r.L
	}
	changed := make([]VertexID, 0, len(edits)+len(d.Relabels))
	var shift int64 // the degree change summed over the rows patched so far
	next := 0       // the first row not yet placed
	for i := 0; i < len(edits); {
		v := edits[i].v
		j := i + 1
		for j < len(edits) && edits[j].v == v {
			j++
		}
		ng.moveRows(g, next, int(v), shift)
		shift = ng.patchRow(g, v, edits[i:j], shift)
		changed = append(changed, v)
		next, i = int(v)+1, j
	}
	ng.moveRows(g, next, n, shift)
	ng.offsets[n] = g.offsets[n] + shift

	for _, r := range d.Relabels {
		changed = append(changed, r.V)
	}
	slices.Sort(changed)
	return ng, slices.Compact(changed), nil
}

// moveRows places g's rows [lo, hi), which the delta does not touch: each
// offset moves by shift and their adjacency moves with one copy.
func (ng *Graph) moveRows(g *Graph, lo, hi int, shift int64) {
	for v := lo; v < hi; v++ {
		ng.offsets[v] = g.offsets[v] + shift
	}
	a, b := g.offsets[lo], g.offsets[hi]
	copy(ng.adj[a+shift:b+shift], g.adj[a:b])
	if ng.edgeLabels != nil {
		copy(ng.edgeLabels[a+shift:b+shift], g.edgeLabels[a:b])
	}
}

// patchRow writes row v of the next epoch: g's row v, placed shift slots
// later, merged with edits (v's edits, sorted by neighbor). It returns the
// shift of the rows after v.
func (ng *Graph) patchRow(g *Graph, v VertexID, edits []rowEdit, shift int64) int64 {
	src, end := g.offsets[v], g.offsets[v+1]
	dst := src + shift
	ng.offsets[v] = dst
	keep := func(to int64) { // carry g's slots [src, to) over unchanged
		copy(ng.adj[dst:], g.adj[src:to])
		if ng.edgeLabels != nil {
			copy(ng.edgeLabels[dst:], g.edgeLabels[src:to])
		}
		dst += to - src
		src = to
	}
	for _, e := range edits {
		to := src
		for to < end && g.adj[to] < e.w {
			to++
		}
		keep(to)
		if e.del {
			src++ // g.adj[src] == e.w: validation saw the edge present
			continue
		}
		ng.adj[dst] = e.w
		if ng.edgeLabels != nil {
			ng.edgeLabels[dst] = e.l
		}
		dst++
	}
	keep(end)
	return dst - end
}
