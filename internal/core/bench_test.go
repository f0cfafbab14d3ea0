package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"approxmatch/internal/datagen"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
	"approxmatch/internal/rmat"
)

// BenchmarkMaxCandidateSet times M* generation alone on the R-MAT workload
// shape of the repo benchmark's cold-candset.rmat (scale 14 here): seeding is
// O(m) over the whole graph while the fixpoint only sees what survived, so
// this is where a seeding regression shows.
func BenchmarkMaxCandidateSet(b *testing.B) {
	g, tp := datagen.RMATWithPattern(14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var m Metrics
		benchState = maxCandidateSet(g, tp, nil, nil, &m)
	}
}

// benchState keeps the compiler from discarding a benchmarked kernel call.
var benchState *State

func BenchmarkExactMatchTriangle(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := randomGraph(rng, 5000, 20000, 4)
	tp := pattern.MustNew([]pattern.Label{0, 1, 2},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExactMatch(g, tp, true, false)
	}
}

func BenchmarkPipelineK2(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 3000, 12000, 4)
	tp := pattern.MustNew([]pattern.Label{0, 1, 2, 3},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 2, J: 3}, {I: 0, J: 3}, {I: 0, J: 2}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, tp, DefaultConfig(2)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkRecyclingAblation(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := randomGraph(rng, 3000, 15000, 3)
	tp := pattern.MustNew([]pattern.Label{0, 1, 0, 1, 2},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 2, J: 3}, {I: 0, J: 3}, {I: 3, J: 4}})
	for _, recycle := range []bool{false, true} {
		name := "off"
		if recycle {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig(2)
			cfg.WorkRecycling = recycle
			for i := 0; i < b.N; i++ {
				if _, err := Run(g, tp, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchRMAT builds the shared benchmark graph/template pair for the kernel
// worker benchmarks: a scale-12 R-MAT graph and a decorated triangle over
// its densest label classes.
func benchRMAT(b *testing.B) (*graph.Graph, *pattern.Template) {
	b.Helper()
	p := rmat.Graph500(12, 42)
	p.EdgeFactor = 8
	g := rmat.Generate(p)
	tp := pattern.MustNew([]pattern.Label{2, 3, 2},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}})
	return g, tp
}

// BenchmarkCountWDC times the count phase alone — what CountMatches adds to
// the repo benchmark's cold-search.wdc queries — on the per-prototype
// solution states of WDC-1/2/3. The pipeline runs once, outside the timer;
// each iteration then counts every prototype on its exact solution subgraph
// the way CountOn does (label candidates, symmetry breaking, guards).
func BenchmarkCountWDC(b *testing.B) {
	g := datagen.WDC(datagen.DefaultWDCConfig())
	for _, q := range []struct {
		name string
		tp   *pattern.Template
		k    int
	}{{"WDC-1", datagen.WDC1(), 2}, {"WDC-2", datagen.WDC2(), 2}, {"WDC-3", datagen.WDC3(), 3}} {
		res, err := Run(g, q.tp, DefaultConfig(q.k))
		if err != nil {
			b.Fatal(err)
		}
		states := make([]*State, len(res.Solutions))
		for pi, sol := range res.Solutions {
			states[pi] = &State{g: g, verts: sol.Verts, edges: sol.Edges}
		}
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for pi, s := range states {
					tp := res.Set.Protos[pi].Template
					var m Metrics
					benchCount = countMatches(s, initCandidates(s, tp), tp, nil, &m, kernelOpts{})
				}
			}
		})
	}
}

// benchCount keeps the compiler from discarding a benchmarked count.
var benchCount int64

// BenchmarkSearchWDC times the repo benchmark's cold-search.wdc queries
// in-process at the shape amatchd serves them: WDC-1/2/3 at DefaultConfig(k)
// with CountMatches, at level width 1 and 2 (a lone query on a 2-CPU host is
// served at width 2, one beside another query at width 1). Allocations are part of the contract: see the
// per-query figures in ROADMAP.md. lcc-ms/op is the LCC phase's share
// (Metrics.LCCTime, summed over the level's concurrent searches, so at width
// 2 it can exceed the wall time's share).
func BenchmarkSearchWDC(b *testing.B) {
	g := datagen.WDC(datagen.DefaultWDCConfig())
	queries := []struct {
		name string
		tp   *pattern.Template
		k    int
	}{{"WDC-1", datagen.WDC1(), 2}, {"WDC-2", datagen.WDC2(), 2}, {"WDC-3", datagen.WDC3(), 3}}
	for _, q := range queries {
		for _, width := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/width=%d", q.name, width), func(b *testing.B) {
				cfg := DefaultConfig(q.k)
				cfg.CountMatches = true
				b.ReportAllocs()
				b.ResetTimer()
				var lcc time.Duration
				for i := 0; i < b.N; i++ {
					res, err := RunParallelContext(context.Background(), g, q.tp, cfg, width)
					if err != nil {
						b.Fatal(err)
					}
					lcc += res.Metrics.LCCTime
				}
				b.ReportMetric(float64(lcc.Microseconds())/1e3/float64(b.N), "lcc-ms/op")
			})
		}
	}
}
