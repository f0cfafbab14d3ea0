// Package graph provides the vertex-labeled, undirected background graph used
// by the approximate pattern-matching pipeline, stored in compressed sparse
// row (CSR) form, together with builders, statistics and serialization.
//
// The conventions follow §2 of the paper: graphs are simple (no self loops,
// no parallel edges), undirected ((i,j) present implies (j,i) present) and
// vertex labeled with small integer labels.
package graph

import (
	"fmt"
	"math"
	"sort"
)

// VertexID identifies a vertex of the background graph.
type VertexID = uint32

// Label is a discrete vertex label drawn from a small alphabet.
type Label = uint32

// Edge is an undirected edge between two vertices.
type Edge struct {
	U, V VertexID
}

// Graph is a vertex-labeled undirected graph in CSR form. Both directions of
// every undirected edge are stored, so the adjacency of a vertex enumerates
// all its neighbors directly. The zero value is an empty graph.
type Graph struct {
	offsets []int64
	adj     []VertexID
	labels  []Label
	// edgeLabels, when non-nil, holds a label per directed adjacency slot
	// (see edgelabels.go).
	edgeLabels []Label
	// toExt/toInt, when non-nil, map the internal (storage) vertex id space
	// to the external (loader/API) id space and back (see relabel.go). Both
	// are nil on graphs built directly from input, where the spaces coincide.
	toExt []VertexID
	toInt []VertexID
}

// NumVertices returns the number of vertices n.
func (g *Graph) NumVertices() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges returns the number of undirected edges m (each counted once).
func (g *Graph) NumEdges() int { return len(g.adj) / 2 }

// AvgDegree returns the mean vertex degree 2m/n, or 0 for an empty graph.
func (g *Graph) AvgDegree() float64 {
	if n := g.NumVertices(); n > 0 {
		return float64(2*g.NumEdges()) / float64(n)
	}
	return 0
}

// NumDirectedEdges returns 2m, the number of stored adjacency entries.
func (g *Graph) NumDirectedEdges() int { return len(g.adj) }

// Label returns the label of vertex v.
func (g *Graph) Label(v VertexID) Label { return g.labels[v] }

// Labels returns the full label slice, indexed by vertex. The caller must
// not modify it.
func (g *Graph) Labels() []Label { return g.labels }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v VertexID) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted neighbor list of v. The caller must not
// modify it.
func (g *Graph) Neighbors(v VertexID) []VertexID {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// AdjOffset returns the index into the global adjacency array at which the
// neighbor list of v begins. Together with Neighbors it lets callers address
// per-directed-edge state arrays.
func (g *Graph) AdjOffset(v VertexID) int64 { return g.offsets[v] }

// HasEdge reports whether the undirected edge (u,v) is present, by binary
// search over u's (sorted) neighbor list.
func (g *Graph) HasEdge(u, v VertexID) bool {
	ns := g.Neighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	return i < len(ns) && ns[i] == v
}

// EdgeIndex returns the position of neighbor v within u's adjacency list, or
// -1 when the edge is absent.
func (g *Graph) EdgeIndex(u, v VertexID) int {
	ns := g.Neighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	if i < len(ns) && ns[i] == v {
		return i
	}
	return -1
}

// MaxLabel returns the largest label value present, or 0 for an empty graph.
func (g *Graph) MaxLabel() Label {
	var max Label
	for _, l := range g.labels {
		if l > max {
			max = l
		}
	}
	return max
}

// LabelFrequencies returns a map from label to the number of vertices
// carrying it.
func (g *Graph) LabelFrequencies() map[Label]int64 {
	freq := make(map[Label]int64)
	for _, l := range g.labels {
		freq[l]++
	}
	return freq
}

// Edges returns every undirected edge once, with U < V.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.NumEdges())
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(VertexID(u)) {
			if VertexID(u) < v {
				edges = append(edges, Edge{VertexID(u), v})
			}
		}
	}
	return edges
}

// TopologyBytes returns the approximate memory footprint of the CSR topology
// (offsets, adjacency, vertex labels and, when present, the per-slot edge
// labels), mirroring the paper's Fig. 11(a) accounting.
func (g *Graph) TopologyBytes() int64 {
	return int64(len(g.offsets))*8 + int64(len(g.adj))*4 +
		int64(len(g.labels))*4 + int64(len(g.edgeLabels))*4
}

// Validate checks structural invariants: sorted neighbor lists, no self
// loops, no duplicate edges, and symmetric adjacency. It is intended for
// tests and for validating externally loaded data.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	if len(g.labels) != n {
		return fmt.Errorf("graph: %d labels for %d vertices", len(g.labels), n)
	}
	for u := 0; u < n; u++ {
		ns := g.Neighbors(VertexID(u))
		for i, v := range ns {
			if int(v) >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", u, v)
			}
			if v == VertexID(u) {
				return fmt.Errorf("graph: self loop at vertex %d", u)
			}
			if i > 0 && ns[i-1] >= v {
				return fmt.Errorf("graph: adjacency of %d not strictly sorted at %d", u, i)
			}
			if !g.HasEdge(v, VertexID(u)) {
				return fmt.Errorf("graph: edge (%d,%d) missing reverse direction", u, v)
			}
		}
	}
	return nil
}

// Stats summarizes a graph for reporting (the dataset table in §5: d_max,
// d_avg, d_stdev and label count).
type Stats struct {
	NumVertices int
	NumEdges    int // undirected
	MaxDegree   int
	AvgDegree   float64
	StdevDegree float64
	NumLabels   int
}

// ComputeStats returns summary statistics for g.
func ComputeStats(g *Graph) Stats {
	s := Stats{NumVertices: g.NumVertices(), NumEdges: g.NumEdges()}
	labels := make(map[Label]struct{})
	var sumSq float64
	for v := 0; v < s.NumVertices; v++ {
		d := g.Degree(VertexID(v))
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
		sumSq += float64(d) * float64(d)
		labels[g.Label(VertexID(v))] = struct{}{}
	}
	if s.NumVertices > 0 {
		s.AvgDegree = g.AvgDegree()
		variance := sumSq/float64(s.NumVertices) - s.AvgDegree*s.AvgDegree
		if variance > 0 {
			s.StdevDegree = math.Sqrt(variance)
		}
	}
	s.NumLabels = len(labels)
	return s
}

// String implements fmt.Stringer for Stats.
func (s Stats) String() string {
	return fmt.Sprintf("n=%d m=%d dmax=%d davg=%.1f dstdev=%.1f labels=%d",
		s.NumVertices, s.NumEdges, s.MaxDegree, s.AvgDegree, s.StdevDegree, s.NumLabels)
}
