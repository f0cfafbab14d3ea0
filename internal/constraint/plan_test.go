package constraint

import (
	"testing"

	"approxmatch/internal/datagen"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
	"approxmatch/internal/prototype"
)

// planCase is one query whose prototypes the plan tests cover.
type planCase struct {
	name string
	t    *pattern.Template
	k    int
}

// planCases lists the paper's queries at the edit distances the
// experiments run them at, and the 3-, 4- and 5-vertex motif sets (the
// unlabeled clique relaxed to every connected motif).
func planCases() []planCase {
	return []planCase{
		{"WDC-1", datagen.WDC1(), 2},
		{"WDC-2", datagen.WDC2(), 2},
		{"WDC-3", datagen.WDC3(), 3},
		{"WDC-4", datagen.WDC4(), 4},
		{"RMAT-1", datagen.RMAT1(datagen.RMATGraph(10)), 2},
		{"RDT-1", datagen.RDT1(), datagen.RDT1EditDistance},
		{"IMDB-1", datagen.IMDB1(), datagen.IMDB1EditDistance},
		{"motif-3", pattern.CliqueN(pattern.Unlabeled(3)), 3},
		{"motif-4", pattern.CliqueN(pattern.Unlabeled(4)), 6},
		{"motif-5", pattern.CliqueN(pattern.Unlabeled(5)), 10},
	}
}

// wdcPlanGraph is a 5,000-vertex WDC graph: its label frequencies and
// degree are what the plan tests order and orient by.
func wdcPlanGraph() (*graph.Graph, LabelFreq) {
	g := datagen.WDC(datagen.WDCConfig{NumVertices: 5000, EdgesPerVertex: 8, Seed: 1})
	freq := LabelFreq(g.LabelFrequencies())
	freq[pattern.Wildcard] = int64(g.NumVertices())
	return g, freq
}

// TestPlanWalkIDNamesOneWalk checks the invariant work recycling rests on:
// across every prototype of every query, walks that share an ID are one
// walk after orientation (they have one reference encoding), and no plan
// holds one walk twice.
func TestPlanWalkIDNamesOneWalk(t *testing.T) {
	g, freq := wdcPlanGraph()
	named := make(map[string]string) // walk ID -> encoding of the walk run under it
	plans := 0
	for _, c := range planCases() {
		set, err := prototype.Generate(c.t, c.k)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for pi, p := range set.Protos {
			plan := Plan(p.Template, freq, int64(g.NumVertices()), g.AvgDegree())
			plans++
			for i, w := range plan {
				enc := fmtWalkID(p.Template, w.Kind, w.Seq)
				if prev, ok := named[w.ID]; !ok {
					named[w.ID] = enc
				} else if prev != enc {
					t.Errorf("%s prototype %d: ID %q runs %q here and %q elsewhere", c.name, pi, w.ID, enc, prev)
				}
				if containsWalk(plan[:i], w) {
					t.Errorf("%s prototype %d: plan holds %v twice", c.name, pi, w)
				}
			}
		}
	}
	if plans == 0 || len(named) == 0 {
		t.Fatal("no walks planned")
	}
}

// BenchmarkPlan plans every prototype of WDC-3 at k=3 (164 plans) and a
// one-label 8-clique (8,018 simple cycles) with a WDC graph's frequencies.
func BenchmarkPlan(b *testing.B) {
	g, freq := wdcPlanGraph()
	n, avg := int64(g.NumVertices()), g.AvgDegree()
	set, err := prototype.Generate(datagen.WDC3(), 3)
	if err != nil {
		b.Fatal(err)
	}
	k8 := pattern.CliqueN(pattern.Unlabeled(8))
	b.Run("WDC-3", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range set.Protos {
				Plan(p.Template, freq, n, avg)
			}
		}
	})
	b.Run("K8", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Plan(k8, freq, n, avg)
		}
	})
}
