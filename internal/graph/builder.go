package graph

import (
	"fmt"
	"slices"
)

// Builder accumulates labeled vertices and undirected edges and produces a
// CSR Graph. It deduplicates parallel edges, drops self loops and
// symmetrizes the edge set, so callers may add each undirected edge in
// either or both directions.
type Builder struct {
	labels     []Label
	edges      []Edge
	edgeLabels map[Edge]Label // nil unless AddEdgeLabeled was used
}

// NewBuilder returns a Builder pre-sized for n vertices with label zero.
func NewBuilder(n int) *Builder {
	return &Builder{labels: make([]Label, n)}
}

// AddVertex appends a vertex with the given label and returns its id.
func (b *Builder) AddVertex(l Label) VertexID {
	b.labels = append(b.labels, l)
	return VertexID(len(b.labels) - 1)
}

// SetLabel sets the label of an existing vertex.
func (b *Builder) SetLabel(v VertexID, l Label) { b.labels[v] = l }

// NumVertices returns the number of vertices added so far.
func (b *Builder) NumVertices() int { return len(b.labels) }

// AddEdge records the undirected edge (u,v). Self loops are ignored.
// Vertices must already exist.
func (b *Builder) AddEdge(u, v VertexID) {
	if u == v {
		return
	}
	if int(u) >= len(b.labels) || int(v) >= len(b.labels) {
		panic(fmt.Sprintf("graph: AddEdge(%d,%d) beyond %d vertices", u, v, len(b.labels)))
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, Edge{u, v})
}

// Build produces the CSR graph. The builder may be reused afterwards, but
// the produced graph is independent of it.
//
// Build sorts nothing. It buckets both directions of every recorded edge by
// source row, then transposes the buckets: visiting w in increasing order
// and appending w to the row of each of its neighbors leaves every row
// sorted, because the edge set is symmetric, and puts the copies of a
// repeated edge side by side, where one pass drops them.
func (b *Builder) Build() *Graph {
	n := len(b.labels)
	offsets := make([]int64, n+1)
	for _, e := range b.edges {
		offsets[e.U+1]++
		offsets[e.V+1]++
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	buckets := make([]VertexID, offsets[n])
	cursor := slices.Clone(offsets[:n])
	for _, e := range b.edges {
		buckets[cursor[e.U]] = e.V
		cursor[e.U]++
		buckets[cursor[e.V]] = e.U
		cursor[e.V]++
	}
	adj := make([]VertexID, offsets[n])
	copy(cursor, offsets[:n])
	for w := 0; w < n; w++ {
		for _, v := range buckets[offsets[w]:offsets[w+1]] {
			adj[cursor[v]] = VertexID(w)
			cursor[v]++
		}
	}
	// Drop repeated edges, compacting the rows in place.
	k := int64(0)
	for v := 0; v < n; v++ {
		lo, hi := offsets[v], offsets[v+1]
		offsets[v] = k
		for i := lo; i < hi; i++ {
			if i == lo || adj[i] != adj[i-1] {
				adj[k] = adj[i]
				k++
			}
		}
	}
	offsets[n] = k
	if k < int64(len(adj)) {
		adj = slices.Clone(adj[:k])
	}
	g := &Graph{offsets: offsets, adj: adj, labels: append([]Label(nil), b.labels...)}
	if b.edgeLabels != nil {
		g.edgeLabels = make([]Label, len(adj))
		for v := 0; v < n; v++ {
			for i, w := range g.Neighbors(VertexID(v)) {
				g.edgeLabels[offsets[v]+int64(i)] = b.edgeLabels[normEdge(Edge{VertexID(v), w})]
			}
		}
	}
	return g
}

// FromEdges is a convenience constructor building a graph directly from a
// label slice and an edge list.
func FromEdges(labels []Label, edges []Edge) *Graph {
	b := NewBuilder(0)
	b.labels = append(b.labels, labels...)
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}
