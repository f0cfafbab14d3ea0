package core

import (
	"math/rand"
	"slices"
	"testing"

	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
)

// TestGatherMatchesWalk is the differential test of the kernels' one
// neighbour pass (State.gatherOmega and the checks that read its buffer)
// against the closure walk it replaced (reference_test.go), on random graphs
// in random *in-kernel* states: edges deactivated, vertices dropped with their
// reverse slots left dangling, isolated vertices, and CSR slot ranges of every
// alignment — inside one 64-bit word of the slot vector, straddling one word
// boundary, spanning several words.
func TestGatherMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(2401))
	var isolated, oneWord, straddling, multiWord, dangling int
	for trial := 0; trial < 40; trial++ {
		// Few edges over many vertices leaves degree-0 vertices; two hubs get
		// ranges longer than a word.
		n := 40 + rng.Intn(200)
		b := graph.NewBuilder(n)
		for v := 0; v < n; v++ {
			b.SetLabel(graph.VertexID(v), graph.Label(rng.Intn(4)))
		}
		for i := 0; i < n+rng.Intn(2*n); i++ {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				b.AddEdge(graph.VertexID(u), graph.VertexID(v))
			}
		}
		for _, hub := range []int{rng.Intn(n), rng.Intn(n)} {
			for i := 0; i < 70+rng.Intn(90); i++ {
				if v := rng.Intn(n); v != hub {
					b.AddEdge(graph.VertexID(hub), graph.VertexID(v))
				}
			}
		}
		g := b.Build()

		// A template with repeated labels (multi-count groups) and, half the
		// time, mandatory edges (the M* profile's groups).
		tn := 3 + rng.Intn(4)
		ls := make([]pattern.Label, tn)
		for i := range ls {
			ls[i] = pattern.Label(rng.Intn(3))
		}
		var edges []pattern.Edge
		for v := 1; v < tn; v++ {
			edges = append(edges, pattern.Edge{I: rng.Intn(v), J: v})
		}
		for i := 0; i < tn; i++ {
			if e := (pattern.Edge{I: rng.Intn(tn), J: rng.Intn(tn)}); e.I < e.J && !slices.Contains(edges, e) {
				edges = append(edges, e)
			}
		}
		mandatory := make([]bool, len(edges))
		for i := range mandatory {
			mandatory[i] = rng.Intn(2) == 0
		}
		tp, err := pattern.NewEdgeLabeled(ls, edges, nil, mandatory)
		if err != nil {
			t.Fatal(err)
		}
		prof := buildLocalProfile(tp)
		prep := newCandsetPrep(tp)

		s := NewFullState(g)
		omega := make(candidateSet, n)
		for v := range omega {
			omega[v] = rng.Uint64() & (1<<uint(tn) - 1)
		}
		for v := 0; v < n; v++ {
			for i := range g.Neighbors(graph.VertexID(v)) {
				if rng.Intn(4) == 0 {
					s.DeactivateEdgeAt(graph.VertexID(v), i)
				}
			}
		}
		for v := 0; v < n; v++ {
			if rng.Intn(5) == 0 {
				s.dropVertex(graph.VertexID(v)) // reverse slots dangle
				omega[v] = 0
			}
		}

		var nbr []uint64
		for v := graph.VertexID(0); int(v) < n; v++ {
			ns, base, _ := s.slotScan(v)
			switch first, last := base/64, (base+len(ns)-1)/64; {
			case len(ns) == 0:
				isolated++
			case first == last:
				oneWord++
			case last == first+1:
				straddling++
			default:
				multiWord++
			}
			var want []uint64
			s.ForEachActiveNeighbor(v, func(_ int, w graph.VertexID) { want = append(want, omega[w]) })
			for i, u := range ns {
				if s.EdgeActiveAt(v, i) && !s.VertexActive(u) {
					dangling++
				}
			}

			nbr = s.gatherOmega(omega, v, nbr)
			if !slices.Equal(nbr, want) {
				t.Fatalf("trial %d v=%d: gathered %x, walk delivered %x", trial, v, nbr, want)
			}
			if len(nbr) != s.ActiveDegree(v) {
				t.Fatalf("trial %d v=%d: gather length %d, ActiveDegree %d", trial, v, len(nbr), s.ActiveDegree(v))
			}
			var wantLocal, wantViable uint64
			for q := 0; q < tn; q++ {
				ok := vertexSatisfiesLocal(s, omega, prof, v, q)
				if got := satisfiesLocal(prof, q, nbr); got != ok {
					t.Fatalf("trial %d v=%d q=%d: satisfiesLocal %v, walk says %v", trial, v, q, got, ok)
				}
				if omega.has(v, q) && !ok {
					wantLocal |= 1 << uint(q)
				}
				if omega.has(v, q) && !candidateViable(s, omega, prep, v, q) {
					wantViable |= 1 << uint(q)
				}
			}
			if got := unsatisfiedLocal(prof, omega[v], nbr); got != wantLocal {
				t.Fatalf("trial %d v=%d: unsatisfiedLocal %b, walk says %b", trial, v, got, wantLocal)
			}
			if got := prep.unviable(omega[v], nbr); got != wantViable {
				t.Fatalf("trial %d v=%d: unviable %b, walk says %b", trial, v, got, wantViable)
			}
			need := supportMask(prof, omega[v])
			s.ForEachActiveNeighbor(v, func(_ int, u graph.VertexID) {
				if got, want := omega[u]&need != 0, edgeSupported(omega, prof, v, u); got != want {
					t.Fatalf("trial %d edge (%d,%d): union-mask test %v, per-candidate test %v", trial, v, u, got, want)
				}
			})
		}
	}
	for name, seen := range map[string]int{
		"degree-0 vertices": isolated, "ranges inside one word": oneWord,
		"ranges straddling a word boundary": straddling, "ranges over several words": multiWord,
		"dangling slots": dangling,
	} {
		if seen == 0 {
			t.Errorf("the fixtures never produced %s", name)
		}
	}
}
