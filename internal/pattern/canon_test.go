package pattern

import (
	"math/rand"
	"reflect"
	"testing"
)

// permuteTemplate relabels t's vertices by perm (perm[q] = new index of q),
// shuffles edge order, and randomly flips edge endpoint order — everything a
// client could do while submitting "the same" template.
func permuteTemplate(t *Template, perm []int, rng *rand.Rand) *Template {
	n := t.NumVertices()
	labels := make([]Label, n)
	for q := 0; q < n; q++ {
		labels[perm[q]] = t.Label(q)
	}
	type rec struct {
		e    Edge
		l    Label
		mand bool
	}
	recs := make([]rec, t.NumEdges())
	for i, e := range t.Edges() {
		a, b := perm[e.I], perm[e.J]
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		recs[i] = rec{Edge{a, b}, t.EdgeLabel(i), t.Mandatory(i)}
	}
	rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	edges := make([]Edge, len(recs))
	mand := make([]bool, len(recs))
	var elabels []Label
	if t.HasEdgeLabels() {
		elabels = make([]Label, len(recs))
	}
	for i, r := range recs {
		edges[i] = r.e
		mand[i] = r.mand
		if elabels != nil {
			elabels[i] = r.l
		}
	}
	out, err := NewEdgeLabeled(labels, edges, elabels, mand)
	if err != nil {
		panic(err)
	}
	return out
}

func randomConnectedTemplate(rng *rand.Rand, maxN, maxLabel int) *Template {
	n := 2 + rng.Intn(maxN-1)
	labels := make([]Label, n)
	for i := range labels {
		labels[i] = Label(rng.Intn(maxLabel))
	}
	seen := make(map[Edge]bool)
	var edges []Edge
	// Random spanning tree keeps it connected.
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		e := normEdge(u, v)
		seen[e] = true
		edges = append(edges, e)
	}
	extra := rng.Intn(n)
	for i := 0; i < extra; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		e := normEdge(a, b)
		if seen[e] {
			continue
		}
		seen[e] = true
		edges = append(edges, e)
	}
	mand := make([]bool, len(edges))
	for i := range mand {
		mand[i] = rng.Intn(4) == 0
	}
	t, err := NewWithMandatory(labels, edges, mand)
	if err != nil {
		panic(err)
	}
	return t
}

func randomPerm(n int, rng *rand.Rand) []int {
	p := rng.Perm(n)
	return p
}

// TestCanonicalKeyIsoInvariant: isomorphic submissions — random vertex
// relabelings, edge reorderings, endpoint flips — must map to one key, and
// the canonical forms must be byte-identical templates.
func TestCanonicalKeyIsoInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		base := randomConnectedTemplate(rng, 7, 4)
		keyBase := CanonicalKey(base)
		formBase, _ := CanonicalForm(base)
		for rep := 0; rep < 3; rep++ {
			shuffled := permuteTemplate(base, randomPerm(base.NumVertices(), rng), rng)
			if got := CanonicalKey(shuffled); got != keyBase {
				t.Fatalf("trial %d: isomorphic templates got different keys\n%s -> %s\n%s -> %s",
					trial, base, keyBase, shuffled, got)
			}
			form, _ := CanonicalForm(shuffled)
			if form.String() != formBase.String() {
				t.Fatalf("trial %d: canonical forms differ\n%s\n%s", trial, formBase, form)
			}
			if CanonicalCode(shuffled) != CanonicalCode(base) {
				t.Fatalf("trial %d: CanonicalCode not iso-invariant", trial)
			}
		}
	}
}

// TestCanonicalFormMapping: the returned mapping must be a label-preserving
// isomorphism from the input onto the canonical form, including edge labels
// and mandatory flags.
func TestCanonicalFormMapping(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		in := randomConnectedTemplate(rng, 7, 4)
		ct, toCanon := CanonicalForm(in)
		if ct.NumVertices() != in.NumVertices() || ct.NumEdges() != in.NumEdges() {
			t.Fatalf("trial %d: size mismatch", trial)
		}
		seenPos := make([]bool, in.NumVertices())
		for q := 0; q < in.NumVertices(); q++ {
			p := toCanon[q]
			if p < 0 || p >= in.NumVertices() || seenPos[p] {
				t.Fatalf("trial %d: toCanon is not a permutation: %v", trial, toCanon)
			}
			seenPos[p] = true
			if ct.Label(p) != in.Label(q) {
				t.Fatalf("trial %d: label mismatch at vertex %d", trial, q)
			}
		}
		for i, e := range in.Edges() {
			a, b := toCanon[e.I], toCanon[e.J]
			id := ct.EdgeID(a, b)
			if id < 0 {
				t.Fatalf("trial %d: edge (%d,%d) missing in canonical form", trial, e.I, e.J)
			}
			if ct.Mandatory(id) != in.Mandatory(i) {
				t.Fatalf("trial %d: mandatory flag lost on edge (%d,%d)", trial, e.I, e.J)
			}
			if ct.EdgeLabel(id) != in.EdgeLabel(i) {
				t.Fatalf("trial %d: edge label lost on edge (%d,%d)", trial, e.I, e.J)
			}
		}
		// The canonical form is a fixpoint: canonicalizing it again changes
		// nothing (identity mapping), so cached keys are stable.
		ct2, m2 := CanonicalForm(ct)
		if ct2.String() != ct.String() {
			t.Fatalf("trial %d: canonical form not a fixpoint\n%s\n%s", trial, ct, ct2)
		}
		for q, p := range m2 {
			if p != q {
				t.Fatalf("trial %d: canonical form remapped: %v", trial, m2)
			}
		}
	}
}

// TestCanonicalKeyDistinguishes: table of non-isomorphic pairs that naive
// encodings confuse.
func TestCanonicalKeyDistinguishes(t *testing.T) {
	path4 := MustNew([]Label{1, 1, 1, 1}, []Edge{{0, 1}, {1, 2}, {2, 3}})
	star4 := MustNew([]Label{1, 1, 1, 1}, []Edge{{0, 1}, {0, 2}, {0, 3}})
	tri := MustNew([]Label{1, 1, 1}, []Edge{{0, 1}, {1, 2}, {0, 2}})
	path3 := MustNew([]Label{1, 1, 1}, []Edge{{0, 1}, {1, 2}})
	pathAB := MustNew([]Label{1, 2, 1}, []Edge{{0, 1}, {1, 2}})
	pathBA := MustNew([]Label{2, 1, 2}, []Edge{{0, 1}, {1, 2}})
	pairs := [][2]*Template{
		{path4, star4},
		{tri, path3},
		{pathAB, pathBA},
	}
	for i, p := range pairs {
		if CanonicalKey(p[0]) == CanonicalKey(p[1]) {
			t.Errorf("pair %d: non-isomorphic templates share a key: %s vs %s", i, p[0], p[1])
		}
	}
}

// TestCanonicalKeyMandatoryRegression: CanonicalCode deliberately folds
// mandatory-differing templates (prototype dedup), but such templates have
// different prototype sets and hence different results — the cache key must
// separate them. This is the collision the result cache would otherwise be
// poisoned by.
func TestCanonicalKeyMandatoryRegression(t *testing.T) {
	labels := []Label{1, 2, 3}
	edges := []Edge{{0, 1}, {1, 2}, {0, 2}}
	free, err := NewWithMandatory(labels, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := NewWithMandatory(labels, edges, []bool{true, false, false})
	if err != nil {
		t.Fatal(err)
	}
	if CanonicalCode(free) != CanonicalCode(pinned) {
		t.Fatalf("precondition: CanonicalCode should fold mandatory-differing templates")
	}
	if CanonicalKey(free) == CanonicalKey(pinned) {
		t.Fatalf("CanonicalKey collides for mandatory-differing templates: %q", CanonicalKey(free))
	}
	// Pinning a *different but automorphic-equivalent* edge must keep the
	// key identical: labels 1,2,3 are distinct so edges (0,1) vs (1,2) are
	// NOT equivalent here; check with a symmetric template instead.
	sym := []Label{1, 1, 1}
	a, _ := NewWithMandatory(sym, edges, []bool{true, false, false})
	b, _ := NewWithMandatory(sym, edges, []bool{false, true, false})
	if CanonicalKey(a) != CanonicalKey(b) {
		t.Fatalf("automorphism-equivalent mandatory placements must share a key")
	}
	c, _ := NewWithMandatory(sym, edges, []bool{true, true, false})
	if CanonicalKey(a) == CanonicalKey(c) {
		t.Fatalf("different mandatory multiplicity must change the key")
	}
}

// TestCanonicalKeyRandomMutationDistinct: mutating a random structural
// property (vertex label, edge presence, edge label, mandatory flag) must
// change the key — i.e. the key has no blind spots a cache could collide on.
func TestCanonicalKeyRandomMutationDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		base := randomConnectedTemplate(rng, 6, 3)
		key := CanonicalKey(base)
		n := base.NumVertices()
		labels := append([]Label(nil), base.Labels()...)
		edges := append([]Edge(nil), base.Edges()...)
		mand := make([]bool, base.NumEdges())
		for i := range mand {
			mand[i] = base.Mandatory(i)
		}
		switch rng.Intn(3) {
		case 0: // change a vertex label
			q := rng.Intn(n)
			labels[q] = labels[q] + 100
		case 1: // flip a mandatory flag
			i := rng.Intn(len(mand))
			mand[i] = !mand[i]
		case 2: // add an edge if room, else flip a mandatory flag
			added := false
			for a := 0; a < n && !added; a++ {
				for b := a + 1; b < n && !added; b++ {
					if !base.HasEdge(a, b) {
						edges = append(edges, Edge{a, b})
						mand = append(mand, false)
						added = true
					}
				}
			}
			if !added {
				i := rng.Intn(len(mand))
				mand[i] = !mand[i]
			}
		}
		mut, err := NewWithMandatory(labels, edges, mand)
		if err != nil {
			continue // mutation disconnected or invalidated it; skip
		}
		if CanonicalKey(mut) == key {
			t.Fatalf("trial %d: mutation did not change key\nbase: %s\nmut:  %s", trial, base, mut)
		}
	}
}

// TestCanonicalKeyExtendsCode: the key's base section must equal
// CanonicalCode — appending the mandatory section refines ties without
// perturbing the minimized structural encoding, so prototype dedup and the
// cache key agree on structure.
func TestCanonicalKeyExtendsCode(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		tt := randomConnectedTemplate(rng, 7, 4)
		code := CanonicalCode(tt)
		key := CanonicalKey(tt)
		if len(key) < len(code) || key[:len(code)] != code {
			t.Fatalf("trial %d: key %q does not extend code %q", trial, key, code)
		}
	}
}

// TestCanonicalCost checks the cell-permutation count and that Canonical
// declines exactly the templates over its 1<<16 cap.
func TestCanonicalCost(t *testing.T) {
	var starEdges []Edge
	for leaf := 1; leaf < 10; leaf++ {
		starEdges = append(starEdges, Edge{0, leaf})
	}
	for _, c := range []struct {
		name string
		tpl  *Template
		cost float64
	}{
		// Distinct labels: every cell is a singleton.
		{"distinct-label path", MustNew([]Label{1, 2, 3}, []Edge{{0, 1}, {1, 2}}), 1},
		// All-same-label clique: refinement cannot split it; cost n!.
		{"K4", MustNew([]Label{7, 7, 7, 7},
			[]Edge{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}), 24},
		// One-label star: its 9 leaves share a cell, 9! > 1<<16.
		{"9-leaf star", MustNew(make([]Label, 10), starEdges), 362880},
	} {
		if got := CanonicalCost(c.tpl); got != c.cost {
			t.Errorf("%s: cost %v, want %v", c.name, got, c.cost)
		}
		form, key, ok := Canonical(c.tpl)
		if want := c.cost <= 1<<16; ok != want || (form != nil) != want || (key != "") != want {
			t.Errorf("%s: Canonical = (%v, %q, %v), want ok=%v", c.name, form, key, ok, want)
		}
	}
}

func FuzzCanonicalKey(f *testing.F) {
	f.Add(int64(5), int64(11))
	f.Add(int64(42), int64(99))
	f.Fuzz(func(t *testing.T, seedA, seedB int64) {
		rng := rand.New(rand.NewSource(seedA))
		base := randomConnectedTemplate(rng, 6, 3)
		shufRng := rand.New(rand.NewSource(seedB))
		shuffled := permuteTemplate(base, randomPerm(base.NumVertices(), shufRng), shufRng)
		if CanonicalKey(base) != CanonicalKey(shuffled) {
			t.Fatalf("isomorphic templates got different keys\n%s\n%s", base, shuffled)
		}
		if FindIsomorphism(base, shuffled) == nil {
			t.Fatalf("permuteTemplate produced a non-isomorphic template")
		}
		// The one-pass admission agrees with its three separate views.
		for _, tt := range []*Template{base, shuffled} {
			wantForm, _ := CanonicalForm(tt)
			form, key, ok := Canonical(tt)
			if want := CanonicalCost(tt) <= 1<<16; ok != want {
				t.Fatalf("Canonical ok = %v, want %v for\n%s", ok, want, tt)
			}
			if ok && (!reflect.DeepEqual(form, wantForm) || key != CanonicalKey(wantForm)) {
				t.Fatalf("Canonical disagrees with CanonicalForm/CanonicalKey for\n%s", tt)
			}
		}
	})
}
