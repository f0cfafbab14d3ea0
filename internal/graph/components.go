package graph

import "approxmatch/internal/bitvec"

// ConnectedComponents labels each vertex with a component id (0-based,
// ordered by smallest member vertex) and returns the labels plus the
// component count. Useful for scoping exploratory searches and for
// sanity-checking generated datasets.
func ConnectedComponents(g *Graph) (comp []int, count int) {
	n := g.NumVertices()
	comp = make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var stack []VertexID
	for v := 0; v < n; v++ {
		if comp[v] != -1 {
			continue
		}
		comp[v] = count
		stack = append(stack[:0], VertexID(v))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.Neighbors(u) {
				if comp[w] == -1 {
					comp[w] = count
					stack = append(stack, w)
				}
			}
		}
		count++
	}
	return comp, count
}

// LargestComponent returns the subgraph induced by the largest connected
// component — a View over its vertices and every slot — together with the
// mapping from its vertex ids back to g's, in increasing order.
func LargestComponent(g *Graph) (*Graph, []VertexID) {
	comp, count := ConnectedComponents(g)
	if count == 0 {
		return g, nil
	}
	sizes := make([]int, count)
	for _, c := range comp {
		sizes[c]++
	}
	best := 0
	for c, s := range sizes {
		if s > sizes[best] {
			best = c
		}
	}
	verts := bitvec.New(g.NumVertices())
	for v, c := range comp {
		if c == best {
			verts.Set(v)
		}
	}
	slots := bitvec.New(g.NumDirectedEdges())
	slots.SetAll()
	vw := NewView(g, verts, slots)
	return vw.Graph(), vw.OrigVertices()
}
