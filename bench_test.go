package approxmatch

// One benchmark per table/figure of the paper's evaluation (§5). These run
// on bench-sized synthetic datasets so `go test -bench=.` completes in
// minutes; cmd/experiments runs the full-size versions and prints the
// paper-style tables. Shape metrics (speedups, message counts, modeled
// times) are attached via b.ReportMetric.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"approxmatch/internal/constraint"
	"approxmatch/internal/core"
	"approxmatch/internal/datagen"
	"approxmatch/internal/dist"
	"approxmatch/internal/graph"
	"approxmatch/internal/motif"
	"approxmatch/internal/naive"
	"approxmatch/internal/pattern"
	"approxmatch/internal/tle"
)

var (
	benchWDCOnce sync.Once
	benchWDCG    *graph.Graph
)

// benchWDC returns a shared bench-sized WDC-like graph.
func benchWDC() *graph.Graph {
	benchWDCOnce.Do(func() {
		cfg := datagen.DefaultWDCConfig()
		cfg.NumVertices = 6000
		cfg.PlantExact, cfg.PlantPartial, cfg.PlantNearClique = 10, 20, 3
		benchWDCG = datagen.WDC(cfg)
	})
	return benchWDCG
}

// BenchmarkFig4WeakScalingRMAT reproduces Fig. 4: R-MAT size and rank count
// growing together with the RMAT-1 pattern (k=2, 24 prototypes). The
// per-iteration metric work/rank/edge is the weak-scaling flatness signal.
func BenchmarkFig4WeakScalingRMAT(b *testing.B) {
	ranks := 2
	for scale := 9; scale <= 11; scale++ {
		g, tpl := datagen.RMATWithPattern(scale)
		b.Run(fmt.Sprintf("scale%d_ranks%d", scale, ranks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := dist.NewEngine(g, dist.Config{Ranks: ranks, RanksPerNode: 2})
				if _, err := dist.Run(e, tpl, dist.DefaultOptions(2)); err != nil {
					b.Fatal(err)
				}
				var maxWork int64
				for r := range e.ComputePerRank {
					if c := e.ComputePerRank[r].Load(); c > maxWork {
						maxWork = c
					}
				}
				b.ReportMetric(float64(maxWork)/float64(g.NumEdges()), "work/rank/edge")
			}
		})
		ranks *= 2
	}
}

// BenchmarkFig6StrongScalingWDC reproduces Fig. 6: fixed WDC-like input,
// growing rank counts, for WDC-1/2/3.
func BenchmarkFig6StrongScalingWDC(b *testing.B) {
	g := benchWDC()
	pats := []struct {
		name string
		tpl  *pattern.Template
		k    int
	}{
		{"WDC1", datagen.WDC1(), 2},
		{"WDC2", datagen.WDC2(), 2},
		{"WDC3", datagen.WDC3(), 2},
	}
	for _, p := range pats {
		for _, ranks := range []int{2, 4, 8} {
			b.Run(fmt.Sprintf("%s_ranks%d", p.name, ranks), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					e := dist.NewEngine(g, dist.Config{Ranks: ranks, RanksPerNode: 4})
					if _, err := dist.Run(e, p.tpl, dist.DefaultOptions(p.k)); err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(dist.ModeledTime(e, dist.DefaultCostModel(), 4), "modeled-time")
				}
			})
		}
	}
}

// BenchmarkFig7NaiveVsHGT reproduces Fig. 7: the naïve per-prototype search
// vs the optimized pipeline across the paper's pattern/graph pairs.
func BenchmarkFig7NaiveVsHGT(b *testing.B) {
	rmatG, rmatT := datagen.RMATWithPattern(10)
	workloads := []struct {
		name string
		g    *graph.Graph
		tpl  *pattern.Template
		k    int
	}{
		{"RMAT-1", rmatG, rmatT, 2},
		{"WDC-1", benchWDC(), datagen.WDC1(), 2},
		{"WDC-2", benchWDC(), datagen.WDC2(), 2},
		{"WDC-3", benchWDC(), datagen.WDC3(), 2},
		{"RDT-1", benchReddit(), datagen.RDT1(), datagen.RDT1EditDistance},
		{"IMDB-1", benchIMDb(), datagen.IMDB1(), datagen.IMDB1EditDistance},
	}
	for _, wl := range workloads {
		b.Run(wl.name+"/naive", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := naive.Run(wl.g, wl.tpl, wl.k, false); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(wl.name+"/hgt", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(wl.g, wl.tpl, core.DefaultConfig(wl.k)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchReddit() *graph.Graph {
	cfg := datagen.DefaultRedditConfig()
	cfg.NumAuthors, cfg.NumPosts, cfg.NumComments = 1500, 4000, 8000
	return datagen.Reddit(cfg)
}

func benchIMDb() *graph.Graph {
	cfg := datagen.DefaultIMDbConfig()
	cfg.NumMovies = 4000
	return datagen.IMDb(cfg)
}

// BenchmarkFig8Scenarios reproduces Fig. 8: WDC-3 under naïve / X (search
// space reduction) / Y (X + work recycling) / Z (Y + parallel prototypes).
func BenchmarkFig8Scenarios(b *testing.B) {
	g := benchWDC()
	tpl := datagen.WDC3()
	const k = 2
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := naive.Run(g, tpl, k, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("X-reduction", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(g, tpl, core.Config{EditDistance: k, LabelPairRefinement: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Y-recycling", func(b *testing.B) {
		cfg := core.Config{EditDistance: k, LabelPairRefinement: true, WorkRecycling: true, FrequencyOrdering: true}
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(g, tpl, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Z-parallel", func(b *testing.B) {
		cfg := core.Config{EditDistance: k, LabelPairRefinement: true, WorkRecycling: true, FrequencyOrdering: true}
		for i := 0; i < b.N; i++ {
			if _, err := core.RunParallelContext(context.Background(), g, tpl, cfg, 8); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig9aLoadBalancing reproduces Fig. 9(a): distributed WDC-2 with
// and without the active-vertex reshuffle; the imbalance metric (max/mean
// per-rank work) is reported.
func BenchmarkFig9aLoadBalancing(b *testing.B) {
	g := benchWDC()
	tpl := datagen.WDC2()
	for _, lb := range []bool{false, true} {
		name := "NLB"
		if lb {
			name = "LB"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := dist.NewEngine(g, dist.Config{Ranks: 8, RanksPerNode: 4})
				opts := dist.DefaultOptions(2)
				opts.Rebalance = lb
				if _, err := dist.Run(e, tpl, opts); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(dist.LoadImbalance(e), "imbalance")
			}
		})
	}
}

// BenchmarkFig9bOrderings reproduces Fig. 9(b): constraint ordering by
// label frequency (NLCC message metric), and the match-enumeration
// extension vs re-enumeration.
func BenchmarkFig9bOrderings(b *testing.B) {
	g := benchWDC()
	tpl := datagen.WDC1()
	b.Run("constraint-order/template", func(b *testing.B) {
		cfg := core.Config{EditDistance: 2, WorkRecycling: true, LabelPairRefinement: true}
		for i := 0; i < b.N; i++ {
			res, err := core.Run(g, tpl, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Metrics.NLCCMessages), "nlcc-msgs")
		}
	})
	b.Run("constraint-order/frequency", func(b *testing.B) {
		cfg := core.Config{EditDistance: 2, WorkRecycling: true, LabelPairRefinement: true, FrequencyOrdering: true}
		for i := 0; i < b.N; i++ {
			res, err := core.Run(g, tpl, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Metrics.NLCCMessages), "nlcc-msgs")
		}
	})

	yt := datagen.PowerLaw(1000, 4, 104)
	_, res, err := motif.PipelineCounts(yt, 4, core.DefaultConfig(0))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("enumeration/direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.CountAllMatches(res, nil)
		}
	})
	b.Run("enumeration/extended", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.CountAllMatchesExtended(res, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTableDeployments reproduces the §5.4 deployment table: parallel
// prototype search on deployments of varying width over a fixed rank
// budget; rank-seconds is the CPU-hour analogue.
func BenchmarkTableDeployments(b *testing.B) {
	g := benchWDC()
	tpl := datagen.WDC3()
	full, err := core.Run(g, tpl, core.DefaultConfig(2))
	if err != nil {
		b.Fatal(err)
	}
	var m core.Metrics
	mcs := core.MaxCandidateSet(g, tpl, &m)
	var templates []*pattern.Template
	for _, p := range full.Set.Protos {
		templates = append(templates, p.Template)
	}
	freq := constraint.LabelFreq{}
	for l, c := range g.LabelFrequencies() {
		freq[l] = c
	}
	for _, cfg := range []struct{ deployments, ranksEach int }{{1, 16}, {2, 8}, {4, 4}, {8, 2}} {
		b.Run(fmt.Sprintf("%dx%dranks", cfg.deployments, cfg.ranksEach), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := dist.SearchPrototypesParallel(mcs, templates, cfg.deployments, cfg.ranksEach, freq)
				b.ReportMetric(res.RankSeconds, "rank-seconds")
			}
		})
	}
}

// BenchmarkUseCaseReddit reproduces the §5.5 RDT-1 query.
func BenchmarkUseCaseReddit(b *testing.B) {
	g := benchReddit()
	tpl := datagen.RDT1()
	cfg := core.DefaultConfig(datagen.RDT1EditDistance)
	cfg.CountMatches = true
	for i := 0; i < b.N; i++ {
		res, err := core.Run(g, tpl, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.TotalMatchCount()), "matches")
	}
}

// BenchmarkUseCaseIMDb reproduces the §5.5 IMDB-1 query.
func BenchmarkUseCaseIMDb(b *testing.B) {
	g := benchIMDb()
	tpl := datagen.IMDB1()
	cfg := core.DefaultConfig(datagen.IMDB1EditDistance)
	cfg.CountMatches = true
	for i := 0; i < b.N; i++ {
		res, err := core.Run(g, tpl, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.TotalMatchCount()), "matches")
	}
}

// BenchmarkUseCaseExploratory reproduces the §5.5 WDC-4 top-down search.
func BenchmarkUseCaseExploratory(b *testing.B) {
	g := benchWDC()
	tpl := datagen.WDC4()
	for i := 0; i < b.N; i++ {
		res, err := core.RunTopDownContext(context.Background(), g, tpl, core.DefaultConfig(4), 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.FoundDist), "found-at-k")
	}
}

// BenchmarkTableArabesque reproduces the §5.6 comparison: the TLE baseline
// vs the pipeline for 3- and 4-motifs on CiteSeer-like and a social-like
// graph, including the TLE embedding-budget OOM on the denser input.
func BenchmarkTableArabesque(b *testing.B) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"citeseer", datagen.CiteSeerLike()},
		{"social", datagen.PowerLaw(1200, 4, 104)},
	}
	for _, entry := range graphs {
		for _, size := range []int{3, 4} {
			b.Run(fmt.Sprintf("%s/%dmotif/tle", entry.name, size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := tle.CountMotifs(entry.g, size, tle.Config{}); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/%dmotif/hgt", entry.name, size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := motif.PipelineCounts(entry.g, size, core.DefaultConfig(0)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	b.Run("dense/4motif/tle-oom", func(b *testing.B) {
		g := datagen.PowerLaw(3000, 7, 105)
		for i := 0; i < b.N; i++ {
			if _, _, err := tle.CountMotifs(g, 4, tle.Config{MaxEmbeddings: 200000}); err != tle.ErrOutOfMemory {
				b.Fatalf("expected OOM, got %v", err)
			}
		}
	})
}

// BenchmarkTableMessages reproduces the §5.7 message table: naïve vs HGT
// message totals on WDC-2.
func BenchmarkTableMessages(b *testing.B) {
	g := benchWDC()
	tpl := datagen.WDC2()
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := naive.Run(g, tpl, 2, false)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Metrics.TotalMessages()), "messages")
		}
	})
	b.Run("hgt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.Run(g, tpl, core.DefaultConfig(2))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Metrics.TotalMessages()), "messages")
		}
	})
}

// BenchmarkFig11Memory reproduces the Fig. 11 accounting: topology vs
// algorithm-state bytes.
func BenchmarkFig11Memory(b *testing.B) {
	g := benchWDC()
	tpl := datagen.WDC2()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(g, tpl, core.DefaultConfig(2))
		if err != nil {
			b.Fatal(err)
		}
		var state int64
		for _, sol := range res.Solutions {
			state += sol.Verts.Bytes() + sol.Edges.Bytes()
		}
		state += res.Rho.Bytes()
		b.ReportMetric(float64(g.TopologyBytes()), "topology-bytes")
		b.ReportMetric(float64(state), "state-bytes")
	}
}

// BenchmarkFig12Locality reproduces the Fig. 12 locality sweep: modeled
// runtime of a fixed partitioning under different node groupings.
func BenchmarkFig12Locality(b *testing.B) {
	g := benchWDC()
	tpl := datagen.WDC2()
	e := dist.NewEngine(g, dist.Config{Ranks: 48, RanksPerNode: 8, DelegateThreshold: 512})
	if _, err := dist.Run(e, tpl, dist.DefaultOptions(2)); err != nil {
		b.Fatal(err)
	}
	cm := dist.DefaultCostModel()
	cm.CoresPerNode = 8
	for _, rpn := range []int{48, 8, 1} {
		b.Run(fmt.Sprintf("ranksPerNode%d", rpn), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.ReportMetric(dist.ModeledTime(e, cm, rpn), "modeled-time")
			}
		})
	}
}
