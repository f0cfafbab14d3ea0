package core

import (
	"approxmatch/internal/bitvec"
	"approxmatch/internal/graph"
)

// Derived outputs (§1): beyond the per-vertex match vectors, users consume
// (i) the union of all matches, (ii) the union of matches per template
// version and (iii) full enumerations. This file provides the subgraph
// extraction forms of (i) and (ii).

// UnionEdges returns the directed-slot bit vector of edges participating in
// any prototype's matches.
func (r *Result) UnionEdges() *bitvec.Vector {
	out := bitvec.New(r.Graph.NumDirectedEdges())
	for _, sol := range r.Solutions {
		if sol != nil {
			out.Or(sol.Edges)
		}
	}
	return out
}

// MatchUnionGraph extracts the solution subgraph of prototype pi as a
// standalone graph (vertex-induced on the participating vertices,
// edge-restricted to participating edges), along with the mapping from new
// vertex ids back to the background graph's.
func (r *Result) MatchUnionGraph(pi int) (*graph.Graph, []graph.VertexID) {
	vw := graph.NewView(r.Graph, r.Solutions[pi].Verts, r.Solutions[pi].Edges)
	return vw.Graph(), vw.OrigVertices()
}

// AllMatchesUnionGraph extracts the union of every prototype's solution
// subgraph as a standalone graph.
func (r *Result) AllMatchesUnionGraph() (*graph.Graph, []graph.VertexID) {
	vw := graph.NewView(r.Graph, r.UnionVertices(), r.UnionEdges())
	return vw.Graph(), vw.OrigVertices()
}
