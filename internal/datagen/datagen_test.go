package datagen

import (
	"testing"

	"approxmatch/internal/graph"
	"approxmatch/internal/prototype"
	"approxmatch/internal/refmatch"
)

func TestWDCGraphShape(t *testing.T) {
	cfg := DefaultWDCConfig()
	cfg.NumVertices = 5000
	cfg.PlantExact, cfg.PlantPartial = 5, 5
	g := WDC(cfg)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	s := graph.ComputeStats(g)
	if s.NumVertices < 5000 {
		t.Errorf("vertices = %d", s.NumVertices)
	}
	// Skewed degrees: max degree far above average.
	if float64(s.MaxDegree) < 5*s.AvgDegree {
		t.Errorf("degree distribution not skewed: max=%d avg=%.1f", s.MaxDegree, s.AvgDegree)
	}
	// Zipf labels: label 0 (com) more frequent than label 9 (ac).
	freq := g.LabelFrequencies()
	if freq[LabelCom] <= freq[LabelAc] {
		t.Errorf("label skew wrong: com=%d ac=%d", freq[LabelCom], freq[LabelAc])
	}
	// Planted instances guarantee matches.
	if got := refmatch.Count(g, WDC1(), false); got < int64(cfg.PlantExact) {
		t.Errorf("WDC1 matches = %d, want >= %d", got, cfg.PlantExact)
	}
}

func TestWDCTemplateProperties(t *testing.T) {
	// WDC-1/2 must have cycles sharing edges (forces TDS); WDC-3 must
	// generate 100+ prototypes within k=4; WDC-4 is the 6-clique.
	if WDC1().EdgeMonocyclic() {
		t.Error("WDC-1 should have cycles sharing edges")
	}
	if WDC2().EdgeMonocyclic() {
		t.Error("WDC-2 should have cycles sharing edges")
	}
	s3, err := prototype.Generate(WDC3(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Count() < 100 {
		t.Errorf("WDC-3 prototypes within k=4: %d, want 100+", s3.Count())
	}
	if WDC4().NumEdges() != 15 || WDC4().NumVertices() != 6 {
		t.Error("WDC-4 should be the 6-clique")
	}
}

func TestRDT1FiveProtoTypes(t *testing.T) {
	s, err := prototype.Generate(RDT1(), RDT1EditDistance)
	if err != nil {
		t.Fatal(err)
	}
	if s.Count() != 5 {
		t.Errorf("RDT-1 prototypes = %d, want 5 (paper §5.5)", s.Count())
	}
}

func TestIMDB1SevenPrototypes(t *testing.T) {
	s, err := prototype.Generate(IMDB1(), IMDB1EditDistance)
	if err != nil {
		t.Fatal(err)
	}
	if s.Count() != 7 {
		t.Errorf("IMDB-1 prototypes = %d, want 7 (paper §5.5)", s.Count())
	}
}

func TestRedditGraphTyped(t *testing.T) {
	cfg := DefaultRedditConfig()
	cfg.NumAuthors, cfg.NumPosts, cfg.NumComments = 500, 1500, 3000
	cfg.PlantAdversarial = 5
	g := Reddit(cfg)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Type discipline: no author-author or subreddit-comment edges.
	for v := 0; v < g.NumVertices(); v++ {
		lv := g.Label(graph.VertexID(v))
		for _, u := range g.Neighbors(graph.VertexID(v)) {
			lu := g.Label(u)
			if lv == RedditAuthor && lu == RedditAuthor {
				t.Fatalf("author-author edge (%d,%d)", v, u)
			}
			if lv == RedditSubreddit && lu != RedditPostPos && lu != RedditPostNeg && lu != RedditPostNeutral {
				t.Fatalf("subreddit connected to non-post (%d,%d)", v, u)
			}
		}
	}
	// Planted adversarial structures must match some RDT-1 prototype.
	s, _ := prototype.Generate(RDT1(), RDT1EditDistance)
	total := int64(0)
	for _, p := range s.Protos {
		total += refmatch.Count(g, p.Template, false)
	}
	if total == 0 {
		t.Error("no RDT-1 matches in Reddit graph")
	}
}

func TestIMDbGraphBipartite(t *testing.T) {
	cfg := DefaultIMDbConfig()
	cfg.NumMovies, cfg.NumActresses, cfg.NumActors, cfg.NumDirectors = 2000, 600, 600, 200
	cfg.PlantTuples = 6
	g := IMDb(cfg)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	isMovie := func(l graph.Label) bool { return l == IMDbMovieRecent || l == IMDbMovieOld }
	for v := 0; v < g.NumVertices(); v++ {
		lv := g.Label(graph.VertexID(v))
		for _, u := range g.Neighbors(graph.VertexID(v)) {
			if isMovie(lv) == isMovie(g.Label(u)) {
				t.Fatalf("non-bipartite edge (%d,%d): labels %d-%d", v, u, lv, g.Label(u))
			}
		}
	}
	// Full planted tuples match the exact template.
	if got := refmatch.Count(g, IMDB1(), false); got == 0 {
		t.Error("no exact IMDB-1 matches despite planting")
	}
}

// TestSmallGraphScaleOrdering: CiteSeerLike, the smallest §5.6 graph, keeps
// the real CiteSeer's vertex count.
func TestSmallGraphScaleOrdering(t *testing.T) {
	cs := CiteSeerLike()
	if cs.NumVertices() != 3300 {
		t.Errorf("CiteSeer-like vertices = %d", cs.NumVertices())
	}
}

func TestRMAT1Properties(t *testing.T) {
	g := RMATGraph(10)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	tp := RMAT1(g)
	s, err := prototype.Generate(tp, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Paper (§5.1): RMAT-1 reaches k=2 (then disconnects) with 24
	// prototypes, 16 of them at k=2.
	if s.MaxDist != 2 {
		t.Errorf("RMAT-1 MaxDist = %d, want 2", s.MaxDist)
	}
	if s.Count() != 24 || s.CountAt(2) != 16 || s.CountAt(1) != 7 {
		t.Errorf("RMAT-1 prototypes = %d (k1=%d k2=%d), want 24 (7, 16)",
			s.Count(), s.CountAt(1), s.CountAt(2))
	}
	// Labels must cover a large fraction of vertices.
	freq := g.LabelFrequencies()
	var covered int64
	seen := map[graph.Label]bool{}
	for _, l := range tp.Labels() {
		if !seen[l] {
			covered += freq[l]
			seen[l] = true
		}
	}
	if frac := float64(covered) / float64(g.NumVertices()); frac < 0.25 {
		t.Errorf("template labels cover %.0f%% of vertices, want frequent labels", 100*frac)
	}
}

func TestPlantGuaranteesMatches(t *testing.T) {
	tp := WDC1()
	b := graph.NewBuilder(100)
	// Background noise vertices with non-template labels.
	for v := 0; v < 100; v++ {
		b.SetLabel(graph.VertexID(v), 20+graph.Label(v%5))
	}
	rng := newRand(77)
	Plant(rng, b, tp, 3)
	g := b.Build()
	if got := refmatch.Count(g, tp, false); got < 3 {
		t.Errorf("planted 3, found %d matches", got)
	}
}
