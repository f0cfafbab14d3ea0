package core

import (
	"context"
	"math/rand"
	"testing"

	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
	"approxmatch/internal/prototype"
	"approxmatch/internal/refmatch"
)

func TestFlipsEnumeration(t *testing.T) {
	// Triangle with distinct labels: each flip removes one edge and adds
	// the... a triangle is complete, no addable edge → zero flips.
	tri := pattern.MustNew([]pattern.Label{1, 2, 3},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}})
	flips, err := prototype.Flips(tri)
	if err != nil {
		t.Fatal(err)
	}
	if len(flips) != 0 {
		t.Errorf("complete template has %d flips, want 0", len(flips))
	}
	// Path a-b-c: remove a-b, add a-c → path b-c-a (distinct labels: a new
	// structure); remove b-c, add a-c similarly. 2 flips.
	p := pattern.MustNew([]pattern.Label{1, 2, 3}, []pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}})
	flips, err = prototype.Flips(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(flips) != 2 {
		t.Errorf("path flips = %d, want 2", len(flips))
	}
	for _, f := range flips {
		if f.Template.NumEdges() != p.NumEdges() {
			t.Error("flip changed edge count")
		}
		if !f.Template.Connected() {
			t.Error("flip disconnected")
		}
	}
	// Mandatory edges are never removed.
	pm, err := pattern.NewWithMandatory([]pattern.Label{1, 2, 3},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}}, []bool{true, true})
	if err != nil {
		t.Fatal(err)
	}
	flips, err = prototype.Flips(pm)
	if err != nil {
		t.Fatal(err)
	}
	if len(flips) != 0 {
		t.Errorf("all-mandatory template has %d flips", len(flips))
	}
}

func TestMatchFlipsAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 6; trial++ {
		g := randomGraph(rng, 25, 70, 3)
		tp := randomTemplate(rng, 4, 3)
		cfg := DefaultConfig(0)
		cfg.CountMatches = true
		res, err := MatchFlipsContext(context.Background(), g, tp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := refmatch.Count(g, tp, false); res.Base.MatchCount != want {
			t.Errorf("trial %d: base count %d, want %d", trial, res.Base.MatchCount, want)
		}
		for fi, f := range res.Flips {
			want := refmatch.Count(g, f.Template, false)
			if res.Solutions[fi].MatchCount != want {
				t.Errorf("trial %d flip %d (%v): count %d, want %d",
					trial, fi, f.Template, res.Solutions[fi].MatchCount, want)
			}
			wantVs, _ := refmatch.SolutionSubgraph(g, f.Template)
			for v := 0; v < g.NumVertices(); v++ {
				if res.Solutions[fi].Verts.Get(v) != wantVs[graph.VertexID(v)] {
					t.Errorf("trial %d flip %d: vertex %d wrong", trial, fi, v)
				}
			}
		}
		if res.TotalMatchCount() < res.Base.MatchCount {
			t.Error("total below base")
		}
	}
}
