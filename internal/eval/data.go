// Package eval computes the rows of the paper's evaluation (§5) on the
// synthetic stand-in datasets. Each experiment returns typed rows and an
// error; cmd/experiments prints them as markdown tables, and this package's
// tests assert the shapes the paper claims on the quick-size rows.
//
// Every experiment takes quick: false runs the full size, true the CI size.
// Absolute numbers are machine- and scale-dependent; the experiments exist
// to reproduce the paper's shapes: who wins, by what rough factor, and how
// the breakdowns look.
package eval

import (
	"sync"

	"approxmatch/internal/datagen"
	"approxmatch/internal/graph"
	"approxmatch/internal/motif"
	"approxmatch/internal/pattern"
)

// A Dataset is one input graph of the evaluation, generated
// deterministically at its full or its quick size.
type Dataset struct {
	Name string // as the tables print it
	// Kind is the dataset inventory's description; the inventory lists
	// only the datasets that have one.
	Kind  string
	build func(quick bool) *graph.Graph
}

// size picks a generator parameter at the full or the quick size.
func size(quick bool, full, small int) int {
	if quick {
		return small
	}
	return full
}

// rmatScales are Fig. 4's weak-scaling R-MAT scales; the rank count doubles
// with each step.
func rmatScales(quick bool) []int {
	if quick {
		return []int{9, 10, 11}
	}
	return []int{10, 11, 12, 13, 14}
}

// motifVertices scales the §5.6 motif-counting graphs.
func motifVertices(quick bool) int { return size(quick, 4000, 1500) }

// The evaluation's graphs, in the order the dataset inventory prints them.
//
// WDC has 30,000 vertices (6,000 quick) with 15 exact and 30 partial planted
// instances of each of WDC-1/2/3 and 3 near-6-cliques for WDC-4. The repo
// benchmark (bench/) and core's BenchmarkSearchWDC use
// datagen.DefaultWDCConfig instead: 50,000 vertices, 20/40 planted, no
// near-cliques. That graph is the serving workload. Core's
// TestGoldenCounters pins its search counters and graphfile's
// TestLoadSignaturePinned its load, so it cannot change without resetting
// the benchmark's baseline. The evaluation's sizes keep the full run, whose
// naïve baselines search every prototype over the whole graph, to minutes
// on one host, and they are the sizes EXPERIMENTS.md's verdicts were
// measured at.
var (
	WDC = &Dataset{"WDC-like", "webgraph, Zipf domain labels, planted WDC instances", func(quick bool) *graph.Graph {
		cfg := datagen.DefaultWDCConfig()
		cfg.NumVertices = size(quick, 30000, 6000)
		cfg.PlantExact, cfg.PlantPartial, cfg.PlantNearClique = 15, 30, 3
		return datagen.WDC(cfg)
	}}
	Reddit = &Dataset{"Reddit-like", "typed social graph (author/post/comment/subreddit)", func(quick bool) *graph.Graph {
		cfg := datagen.DefaultRedditConfig()
		cfg.NumAuthors = size(quick, 8000, 1500)
		cfg.NumPosts = size(quick, 20000, 4000)
		cfg.NumComments = size(quick, 40000, 8000)
		return datagen.Reddit(cfg)
	}}
	IMDb = &Dataset{"IMDb-like", "bipartite movie metadata", func(quick bool) *graph.Graph {
		cfg := datagen.DefaultIMDbConfig()
		cfg.NumMovies = size(quick, 12000, 4000)
		return datagen.IMDb(cfg)
	}}
	CiteSeer = &Dataset{"CiteSeer-like", "small sparse citation graph", func(bool) *graph.Graph {
		return datagen.CiteSeerLike()
	}}
	Mico = &Dataset{"Mico-like", "", func(quick bool) *graph.Graph {
		return datagen.PowerLaw(motifVertices(quick), 5, 102)
	}}
	Patent = &Dataset{"Patent-like", "", func(quick bool) *graph.Graph {
		n := motifVertices(quick)
		return datagen.ER(n*3, n*6, 103)
	}}
	YouTube = &Dataset{"YouTube-like", "skewed social graph (scaled)", func(quick bool) *graph.Graph {
		return datagen.PowerLaw(motifVertices(quick)*2, 5, 104)
	}}
	LiveJournal = &Dataset{"LiveJournal-like", "denser social graph (scaled)", func(quick bool) *graph.Graph {
		return datagen.PowerLaw(motifVertices(quick)*2, 7, 105)
	}}
	// RMATLargest is the largest of Fig. 4's R-MAT scales, without the
	// planted RMAT-1 instances.
	RMATLargest = &Dataset{"R-MAT (largest)", "Graph500 R-MAT, degree labels", func(quick bool) *graph.Graph {
		s := rmatScales(quick)
		return datagen.RMATGraph(s[len(s)-1])
	}}
	// RMAT is Fig. 7's R-MAT graph: the third weak-scaling scale, unplanted.
	RMAT = &Dataset{"R-MAT", "", func(quick bool) *graph.Graph {
		return datagen.RMATGraph(rmatScales(quick)[2])
	}}
	// MotifGraph is the sparse power-law graph Figs. 7 and 9(b) count
	// 4-motifs on: PowerLaw(n, 4, 104), not YouTube's PowerLaw(2n, 5, 104),
	// so it is named for its generator.
	MotifGraph = &Dataset{"power-law (4-Motif)", "", func(quick bool) *graph.Graph {
		return datagen.PowerLaw(motifVertices(quick), 4, 104)
	}}

	Datasets = []*Dataset{WDC, Reddit, IMDb, CiteSeer, Mico, Patent, YouTube, LiveJournal, RMATLargest, RMAT, MotifGraph}
)

var graphs = struct {
	sync.Mutex
	built map[graphKey]*graph.Graph
}{built: map[graphKey]*graph.Graph{}}

type graphKey struct {
	d     *Dataset
	quick bool
}

// Graph returns the dataset's graph at the given size, generating it on
// first use. Experiments only read it, so every caller shares one copy.
func (d *Dataset) Graph(quick bool) *graph.Graph {
	graphs.Lock()
	defer graphs.Unlock()
	k := graphKey{d, quick}
	if g, ok := graphs.built[k]; ok {
		return g
	}
	g := d.build(quick)
	graphs.built[k] = g
	return g
}

// InventoryRow is one dataset of the §5 dataset table.
type InventoryRow struct {
	Name, Kind string
	Stats      graph.Stats
}

// Inventory lists every dataset that has a Kind with its graph's
// statistics: the analogue of the paper's §5 dataset table.
func Inventory(quick bool) []InventoryRow {
	var rows []InventoryRow
	for _, d := range Datasets {
		if d.Kind != "" {
			rows = append(rows, InventoryRow{d.Name, d.Kind, graph.ComputeStats(d.Graph(quick))})
		}
	}
	return rows
}

// A Query is one of the paper's templates on its graph, searched to edit
// distance K at the full size and QuickK at the quick size.
type Query struct {
	Name      string
	Data      *Dataset
	template  func(g *graph.Graph) *pattern.Template
	K, QuickK int
}

func fixed(t func() *pattern.Template) func(*graph.Graph) *pattern.Template {
	return func(*graph.Graph) *pattern.Template { return t() }
}

// The paper's queries.
//
// WDC-3 runs to k=3, and k=2 (55 prototypes) at the quick size. The paper
// goes to k=4 for its 100+ prototypes. k=3 already has 164, while k=4 has
// 323 and about doubles every WDC-3 experiment: on the full WDC graph the
// naïve search takes 1.9 s at k=3 and 3.5 s at k=4, the pipeline 95 ms and
// 227 ms (2-vCPU host).
var (
	RMAT1 = Query{"RMAT-1", RMAT, datagen.RMAT1, 2, 2}
	WDC1  = Query{"WDC-1", WDC, fixed(datagen.WDC1), 2, 2}
	WDC2  = Query{"WDC-2", WDC, fixed(datagen.WDC2), 2, 2}
	WDC3  = Query{"WDC-3", WDC, fixed(datagen.WDC3), 3, 2}
	WDC4  = Query{"WDC-4", WDC, fixed(datagen.WDC4), 4, 4}
	RDT1  = Query{"RDT-1", Reddit, fixed(datagen.RDT1), datagen.RDT1EditDistance, datagen.RDT1EditDistance}
	IMDB1 = Query{"IMDB-1", IMDb, fixed(datagen.IMDB1), datagen.IMDB1EditDistance, datagen.IMDB1EditDistance}
	// Motif4's k is the 4-clique's edge count: the naïve search relaxes
	// every edge, so its prototypes are every connected 4-vertex motif.
	Motif4 = Query{"4-Motif", MotifGraph, fixed(func() *pattern.Template { return motif.Clique(4) }), 6, 6}
)

// At returns the query's graph, template and edit distance at the given
// size.
func (q Query) At(quick bool) (*graph.Graph, *pattern.Template, int) {
	g := q.Data.Graph(quick)
	return g, q.template(g), size(quick, q.K, q.QuickK)
}
