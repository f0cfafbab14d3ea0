package core

import (
	"fmt"
	"math/rand"
	"testing"

	"approxmatch/internal/bitvec"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
	"approxmatch/internal/rmat"
)

// referenceSeed is the oracle for candsetPrep.seed, and lives only here: the
// seeding spelled out the slow way. Start from the full graph (or the
// subgraph a restrict mask induces), take down one at a time, through the
// symmetric point mutator, every vertex whose label no template vertex
// accepts, then take down, both directions at once, every remaining edge
// whose label pair or edge label no template edge accepts. It shares no
// lookup table with the kernel: labels go through maps.
func referenceSeed(g *graph.Graph, t *pattern.Template, restrict *bitvec.Vector) (*State, candidateSet) {
	s := NewFullState(g)
	for v := 0; v < g.NumVertices(); v++ {
		if restrict != nil && !restrict.Get(v) {
			s.DeactivateVertex(graph.VertexID(v))
		}
	}
	labelBits := make(map[pattern.Label]uint64)
	var wildBits uint64
	for q := 0; q < t.NumVertices(); q++ {
		if t.Label(q) == pattern.Wildcard {
			wildBits |= 1 << uint(q)
		} else {
			labelBits[t.Label(q)] |= 1 << uint(q)
		}
	}
	omega := make(candidateSet, g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		vid := graph.VertexID(v)
		if !s.VertexActive(vid) {
			continue
		}
		omega[v] = labelBits[g.Label(vid)] | wildBits
		if omega[v] == 0 {
			s.DeactivateVertex(vid)
		}
	}
	pairs := t.EdgePairSet()
	elSet, elWild := t.EdgeLabelSet()
	for v := 0; v < g.NumVertices(); v++ {
		vid := graph.VertexID(v)
		for i, u := range g.Neighbors(vid) {
			if !s.EdgeActiveAt(vid, i) {
				continue
			}
			if !pairs.Matches(g.Label(vid), g.Label(u)) || (!elWild && !elSet[g.EdgeLabelAt(vid, i)]) {
				s.DeactivateEdgeAt(vid, i)
			}
		}
	}
	return s, omega
}

// seedCase is one (graph, template) input of the seed differential.
type seedCase struct {
	name string
	g    *graph.Graph
	tp   *pattern.Template
}

func seedCases() []seedCase {
	rng := rand.New(rand.NewSource(1501))
	var cases []seedCase
	// R-MAT graphs, templates with wildcard vertices and mandatory edges.
	for trial := 0; trial < 6; trial++ {
		p := rmat.Graph500(7, int64(1500+trial))
		p.EdgeFactor = 4
		g := rmat.Generate(p)
		cases = append(cases, seedCase{fmt.Sprintf("rmat%d", trial), g, randomDecoratedTemplate(rng, g)})
	}
	// Edge-labelled graphs; every other template gets a wildcard vertex too.
	for trial := 0; trial < 6; trial++ {
		g := randomEdgeLabeledGraph(rng, 70, 220, 3, 3)
		tp := randomEdgeLabeledTemplate(rng, 4, 3, 3)
		if trial%2 == 1 {
			ls := append([]pattern.Label(nil), tp.Labels()...)
			ls[rng.Intn(len(ls))] = pattern.Wildcard
			els := make([]pattern.Label, tp.NumEdges())
			for i := range els {
				els[i] = tp.EdgeLabel(i)
			}
			var err error
			if tp, err = pattern.NewEdgeLabeled(ls, tp.Edges(), els, nil); err != nil {
				panic(err)
			}
		}
		cases = append(cases, seedCase{fmt.Sprintf("edgelabels%d", trial), g, tp})
	}
	// Single-vertex templates: one concrete label, one wildcard.
	g := randomGraph(rng, 90, 250, 4)
	cases = append(cases,
		seedCase{"single", g, pattern.MustNew([]pattern.Label{2}, nil)},
		seedCase{"single-wild", g, pattern.MustNew([]pattern.Label{pattern.Wildcard}, nil)})
	// Labels on both sides of denseLabelLimit, and one far beyond it: the
	// label table must neither mis-index nor size itself by them.
	b := graph.NewBuilder(80)
	big := []graph.Label{1, denseLabelLimit - 1, denseLabelLimit, 1 << 31}
	for v := 0; v < 80; v++ {
		b.SetLabel(graph.VertexID(v), big[rng.Intn(len(big))])
	}
	for i := 0; i < 240; i++ {
		if u, v := rng.Intn(80), rng.Intn(80); u != v {
			b.AddEdge(graph.VertexID(u), graph.VertexID(v))
		}
	}
	cases = append(cases, seedCase{"big-labels", b.Build(), pattern.MustNew(
		[]pattern.Label{denseLabelLimit - 1, denseLabelLimit, 1 << 31},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}})})
	return cases
}

// TestSeedMatchesReference pins the shared seeding pass against the
// reference on every case, with and without random restrict masks: vertex
// bits, slot bits and ω must be identical, and the seeded state must already
// satisfy the State invariant, as must the finished M*.
func TestSeedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1502))
	for _, c := range seedCases() {
		masks := []*bitvec.Vector{nil}
		for _, keep := range []int{2, 10} { // about 1/2 and 9/10 of the vertices
			mask := bitvec.New(c.g.NumVertices())
			for v := 0; v < c.g.NumVertices(); v++ {
				if rng.Intn(keep) != 0 {
					mask.Set(v)
				}
			}
			masks = append(masks, mask)
		}
		for mi, mask := range masks {
			wantS, wantOmega := referenceSeed(c.g, c.tp, mask)
			tag := fmt.Sprintf("%s mask=%d", c.name, mi)
			s, omega := newCandsetPrep(c.tp).seedState(c.g, mask)
			if !s.verts.Equal(wantS.verts) {
				t.Errorf("%s: seeded vertex bits differ from the reference", tag)
			}
			if !s.edges.Equal(wantS.edges) {
				t.Errorf("%s: seeded slot bits differ from the reference", tag)
			}
			for v := range wantOmega {
				if omega[v] != wantOmega[v] {
					t.Fatalf("%s: ω(%d) = %b, want %b", tag, v, omega[v], wantOmega[v])
				}
			}
			assertSlotSymmetry(t, s, tag+" seed")

			var m Metrics
			assertSlotSymmetry(t, maxCandidateSet(c.g, c.tp, mask, nil, &m), tag+" M*")
		}
	}
}

// TestLabelTable pins the dense/overflow split of labelTable.
func TestLabelTable(t *testing.T) {
	var lt labelTable
	if lt.at(0) != 0 || lt.at(1<<31) != 0 {
		t.Fatal("empty table must read zero")
	}
	lt.add(3, 1)
	lt.add(3, 4)
	lt.add(denseLabelLimit-1, 2)
	lt.add(denseLabelLimit, 8)
	lt.add(pattern.Wildcard-1, 16)
	for _, c := range []struct {
		l    pattern.Label
		want uint64
	}{{0, 0}, {3, 5}, {4, 0}, {denseLabelLimit - 1, 2}, {denseLabelLimit, 8},
		{denseLabelLimit + 1, 0}, {pattern.Wildcard - 1, 16}, {pattern.Wildcard, 0}} {
		if got := lt.at(c.l); got != c.want {
			t.Errorf("at(%d) = %d, want %d", c.l, got, c.want)
		}
	}
	if len(lt.dense) > denseLabelLimit {
		t.Fatalf("dense table grew to %d entries", len(lt.dense))
	}
}
