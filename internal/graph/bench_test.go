package graph_test

import (
	"bytes"
	"math/rand"
	"testing"

	"approxmatch/internal/graph"
	"approxmatch/internal/rmat"
)

func benchGraph(n, m int) *graph.Graph {
	rng := rand.New(rand.NewSource(1))
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetLabel(graph.VertexID(v), graph.Label(rng.Intn(8)))
	}
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(graph.VertexID(u), graph.VertexID(v))
		}
	}
	return b.Build()
}

func BenchmarkBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchGraph(10000, 80000)
	}
}

func BenchmarkHasEdge(b *testing.B) {
	g := benchGraph(10000, 80000)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.HasEdge(graph.VertexID(rng.Intn(10000)), graph.VertexID(rng.Intn(10000)))
	}
}

func BenchmarkNeighborsScan(b *testing.B) {
	g := benchGraph(10000, 80000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var total int
		for v := 0; v < g.NumVertices(); v++ {
			total += len(g.Neighbors(graph.VertexID(v)))
		}
	}
}

func BenchmarkComputeStats(b *testing.B) {
	g := benchGraph(10000, 80000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.ComputeStats(g)
	}
}

// sink keeps each benchmarked result live.
var sink *graph.Graph

// BenchmarkApplyDelta applies one ingest-sized batch — 8 inserts, 4
// deletes, 2 relabels, one insert and one delete on the top hub — to the
// same graph each iteration: hub-heavy R-MAT scale 16 (Graph500 parameters,
// 65K vertices, ~0.9M edges) in degree order, the shape amatchd serves.
func BenchmarkApplyDelta(b *testing.B) {
	g := graph.RelabelByDegree(rmat.Generate(rmat.Graph500(16, 1016)))
	rng := rand.New(rand.NewSource(3))
	n := g.NumVertices()
	db := graph.NewDeltaBuilder()
	deleted := map[graph.Edge]bool{}
	for len(deleted) < 4 {
		u := graph.VertexID(rng.Intn(n))
		if len(deleted) == 0 {
			u = 0
		}
		ns := g.Neighbors(u)
		if len(ns) == 0 {
			continue
		}
		e := graph.Edge{U: u, V: ns[rng.Intn(len(ns))]}
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		if !deleted[e] {
			deleted[e] = true
			db.DeleteEdge(e.U, e.V)
		}
	}
	inserted := map[graph.Edge]bool{}
	for len(inserted) < 8 {
		u, v := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
		if len(inserted) == 0 {
			u = 0
		}
		if u > v {
			u, v = v, u
		}
		if u != v && !g.HasEdge(u, v) && !inserted[graph.Edge{U: u, V: v}] {
			inserted[graph.Edge{U: u, V: v}] = true
			db.InsertEdge(u, v)
		}
	}
	db.RelabelVertex(graph.VertexID(rng.Intn(n)), 1)
	db.RelabelVertex(0, 2)
	d := db.Delta()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if sink, _, err = graph.ApplyDelta(g, d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadEdgeList is the boot path of graphfile.Load: parse the edge
// list of the same scale-16 graph, then relabel it into degree order.
func BenchmarkLoadEdgeList(b *testing.B) {
	var file bytes.Buffer
	if err := graph.WriteEdgeList(&file, rmat.Generate(rmat.Graph500(16, 1016))); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(file.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := graph.ReadEdgeList(bytes.NewReader(file.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		sink = graph.RelabelByDegree(g)
	}
}
