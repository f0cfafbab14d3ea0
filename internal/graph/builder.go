package graph

import (
	"fmt"
	"sort"
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
func (b *Builder) Build() *Graph {
	n := len(b.labels)
	// Sort and deduplicate the canonicalized (u<v) edge list.
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i].U != b.edges[j].U {
			return b.edges[i].U < b.edges[j].U
		}
		return b.edges[i].V < b.edges[j].V
	})
	dedup := b.edges[:0]
	for i, e := range b.edges {
		if i > 0 && e == b.edges[i-1] {
			continue
		}
		dedup = append(dedup, e)
	}
	b.edges = dedup

	deg := make([]int64, n+1)
	for _, e := range b.edges {
		deg[e.U+1]++
		deg[e.V+1]++
	}
	offsets := make([]int64, n+1)
	for i := 0; i < n; i++ {
		offsets[i+1] = offsets[i] + deg[i+1]
	}
	adj := make([]VertexID, offsets[n])
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	for _, e := range b.edges {
		adj[cursor[e.U]] = e.V
		cursor[e.U]++
		adj[cursor[e.V]] = e.U
		cursor[e.V]++
	}
	// Neighbor lists of each vertex are already sorted because edges were
	// processed in (U,V) order: entries written at u come in increasing V,
	// and entries written at v (from the reverse direction) come in
	// increasing U; but the two interleave, so sort each list.
	g := &Graph{offsets: offsets, adj: adj, labels: append([]Label(nil), b.labels...)}
	for v := 0; v < n; v++ {
		ns := adj[offsets[v]:offsets[v+1]]
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	}
	if b.edgeLabels != nil {
		g.edgeLabels = make([]Label, len(adj))
		for v := 0; v < n; v++ {
			for i, w := range g.Neighbors(VertexID(v)) {
				a, bb := VertexID(v), w
				if a > bb {
					a, bb = bb, a
				}
				g.edgeLabels[offsets[v]+int64(i)] = b.edgeLabels[Edge{a, bb}]
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
