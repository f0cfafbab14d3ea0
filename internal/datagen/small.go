package datagen

import (
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
	"approxmatch/internal/rmat"
)

// The §5.6 comparison graphs are unlabeled real-world graphs used for motif
// counting. CiteSeerLike reproduces the smallest of them at its real size;
// internal/eval builds the larger ones with PowerLaw and ER, scaled down to
// sizes the in-process TLE baseline can still materialize embeddings for.

// CiteSeerLike matches the real CiteSeer's published size (3.3K vertices,
// ~4.7K undirected edges).
func CiteSeerLike() *graph.Graph { return ER(3300, 4700, 101) }

// RMAT1 is the Fig. 4 weak-scaling pattern, instantiated against a concrete
// R-MAT graph: a theta graph (two hubs joined by three paths of lengths 2,
// 2 and 3) with a pendant, labeled with the three most frequent
// degree-derived labels of g. Like the paper's RMAT-1 it reaches exactly
// k=2 before disconnecting and generates exactly 24 prototypes — 7 at k=1
// and 16 at k=2 — while its labels cover a large fraction (~45%) of the
// vertices.
func RMAT1(g *graph.Graph) *pattern.Template {
	top := topLabels(g, 3)
	l0, l1, l2 := top[0], top[1], top[2]
	return pattern.MustNew(
		[]pattern.Label{l0, l1, l2, l0, l1, l2, l0},
		[]pattern.Edge{
			{I: 0, J: 2}, {I: 2, J: 1}, // path 1 (length 2)
			{I: 0, J: 3}, {I: 3, J: 1}, // path 2 (length 2)
			{I: 0, J: 4}, {I: 4, J: 5}, {I: 5, J: 1}, // path 3 (length 3)
			{I: 1, J: 6}, // pendant
		})
}

// topLabels returns the n most frequent labels of g, most frequent first.
func topLabels(g *graph.Graph, n int) []graph.Label {
	freq := g.LabelFrequencies()
	out := make([]graph.Label, 0, n)
	for len(out) < n {
		var best graph.Label
		var bestCount int64 = -1
		for l, c := range freq {
			if c > bestCount {
				best, bestCount = l, c
			}
		}
		if bestCount < 0 {
			break
		}
		out = append(out, best)
		delete(freq, best)
	}
	for len(out) < n {
		out = append(out, out[len(out)-1])
	}
	return out
}

// RMATGraph generates the weak-scaling R-MAT graph at the given scale with
// degree labels (Graph500 parameters).
func RMATGraph(scale int) *graph.Graph {
	return rmat.Generate(rmat.Graph500(scale, int64(1000+scale)))
}

// RMATWithPattern generates the weak-scaling R-MAT graph and its RMAT-1
// template, planting exact and partial template instances in proportion to
// graph size so the weak-scaling workload has the paper's property of
// matches growing with the graph.
func RMATWithPattern(scale int) (*graph.Graph, *pattern.Template) {
	g0 := RMATGraph(scale)
	tpl := RMAT1(g0)
	rng := newRand(int64(7700 + scale))
	b := graph.NewBuilder(0)
	for v := 0; v < g0.NumVertices(); v++ {
		b.AddVertex(g0.Label(graph.VertexID(v)))
	}
	for _, e := range g0.Edges() {
		b.AddEdge(e.U, e.V)
	}
	count := g0.NumVertices() / 256
	if count < 4 {
		count = 4
	}
	Plant(rng, b, tpl, count)
	PlantPartial(rng, b, tpl, count, 1)
	PlantPartial(rng, b, tpl, count/2, 2)
	return b.Build(), tpl
}
