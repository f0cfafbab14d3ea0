package pattern

import (
	"math/rand"
	"testing"
)

func symTemplates() map[string]*Template {
	return map[string]*Template{
		"triangle-aaa": MustNew([]Label{1, 1, 1}, []Edge{{0, 1}, {1, 2}, {0, 2}}),
		"triangle-aab": MustNew([]Label{1, 1, 2}, []Edge{{0, 1}, {1, 2}, {0, 2}}),
		"4-clique": MustNew([]Label{1, 1, 1, 1}, []Edge{
			{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}),
		"6-cycle": MustNew([]Label{1, 1, 1, 1, 1, 1}, []Edge{
			{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 5}}),
		"path-3":     MustNew([]Label{1, 2, 1}, []Edge{{0, 1}, {1, 2}}),
		"asymmetric": MustNew([]Label{1, 2, 3}, []Edge{{0, 1}, {1, 2}}),
		"star-4":     MustNew([]Label{2, 1, 1, 1, 1}, []Edge{{0, 1}, {0, 2}, {0, 3}, {0, 4}}),
	}
}

func TestAutomorphismsMatchesCount(t *testing.T) {
	want := map[string]int64{
		"triangle-aaa": 6,
		"triangle-aab": 2,
		"4-clique":     24,
		"6-cycle":      12,
		"path-3":       2,
		"asymmetric":   1,
		"star-4":       24,
	}
	for name, tpl := range symTemplates() {
		auts := Automorphisms(tpl)
		if got := int64(len(auts)); got != want[name] {
			t.Errorf("%s: len(Automorphisms) = %d, want %d", name, got, want[name])
		}
		if got, cnt := int64(len(auts)), CountAutomorphisms(tpl); got != cnt {
			t.Errorf("%s: Automorphisms/CountAutomorphisms disagree: %d vs %d", name, got, cnt)
		}
		seen := make(map[string]bool)
		n := tpl.NumVertices()
		for _, p := range auts {
			key := ""
			perm := make([]bool, n)
			for _, w := range p {
				key += string(rune('a' + w))
				perm[w] = true
			}
			for q, ok := range perm {
				if !ok {
					t.Fatalf("%s: automorphism %v is not a permutation (misses %d)", name, p, q)
				}
			}
			if seen[key] {
				t.Fatalf("%s: duplicate automorphism %v", name, p)
			}
			seen[key] = true
			for _, e := range tpl.Edges() {
				if !tpl.HasEdge(p[e.I], p[e.J]) {
					t.Fatalf("%s: %v does not preserve edge %v", name, p, e)
				}
			}
			for q := 0; q < n; q++ {
				if tpl.Label(q) != tpl.Label(p[q]) {
					t.Fatalf("%s: %v does not preserve label of %d", name, p, q)
				}
			}
		}
	}
}

// TestRestrictionSetOneRepresentativePerOrbit checks the defining property:
// for a random injective assignment f of graph ids to template vertices,
// exactly one member of the orbit {f∘g : g ∈ Aut(T)} satisfies every
// restriction.
func TestRestrictionSetOneRepresentativePerOrbit(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for name, tpl := range symTemplates() {
		auts := Automorphisms(tpl)
		n := tpl.NumVertices()
		restrictions := RestrictionsFor(n, auts)
		for trial := 0; trial < 200; trial++ {
			f := rng.Perm(64)[:n] // injective images in a larger id space
			satisfied := 0
			for _, g := range auts {
				ok := true
				for _, r := range restrictions {
					if f[g[r.A]] >= f[g[r.B]] {
						ok = false
						break
					}
				}
				if ok {
					satisfied++
				}
			}
			if satisfied != 1 {
				t.Fatalf("%s: %d orbit members satisfy restrictions, want exactly 1 (f=%v)", name, satisfied, f)
			}
		}
	}
}

func TestRestrictionSetTrivialGroup(t *testing.T) {
	tpl := MustNew([]Label{1, 2, 3}, []Edge{{0, 1}, {1, 2}})
	auts := Automorphisms(tpl)
	rs := RestrictionsFor(tpl.NumVertices(), auts)
	if len(rs) != 0 || len(auts) != 1 {
		t.Fatalf("asymmetric template: got %v with %d automorphisms, want no restrictions and 1", rs, len(auts))
	}
}
