package pattern_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"testing"

	"approxmatch/internal/datagen"
	"approxmatch/internal/eval"
	"approxmatch/internal/motif"
	"approxmatch/internal/pattern"
	"approxmatch/internal/prototype"
)

// TestCanonicalFormsPinned pins, for every prototype of the paper's queries
// at their quick edit distance and of the 3-, 4- and 5-vertex motif sets,
// everything the search derives from a template's symmetry: CanonicalCode,
// CanonicalKey, the CanonicalForm relabeling, the ordered Automorphisms
// list (restriction sets and orbit expansion depend on its order) and
// CountAutomorphisms — plus the prototype.Set's shape (Protos order,
// EdgeMask, Parents, Children, ByMask). CanonicalForm picks the vertex
// order the server searches in, so served bytes depend on all of it. A
// refactor of canonicalization or of the automorphism walk must leave every
// hash unchanged.
func TestCanonicalFormsPinned(t *testing.T) {
	rmat := datagen.RMAT1(eval.RMAT.Graph(true))
	cases := []struct {
		name string
		tpl  *pattern.Template
		k    int
		want string
	}{
		{"WDC-1", datagen.WDC1(), eval.WDC1.QuickK, "b28d7c208549866a"},
		{"WDC-2", datagen.WDC2(), eval.WDC2.QuickK, "ee6a35a196a5434f"},
		{"WDC-3", datagen.WDC3(), eval.WDC3.QuickK, "2aea5d4bf36cdf97"},
		{"WDC-4", datagen.WDC4(), eval.WDC4.QuickK, "0b49602fa01bf2bb"},
		{"RMAT-1", rmat, eval.RMAT1.QuickK, "d3d32f68644193bc"},
		{"RDT-1", datagen.RDT1(), eval.RDT1.QuickK, "7bd666ad0ce608cf"},
		{"IMDB-1", datagen.IMDB1(), eval.IMDB1.QuickK, "a5aef9fdab759a26"},
		{"motif-3", motif.Clique(3), 3, "bebb489b4235b9aa"},
		{"motif-4", motif.Clique(4), 6, "ecc4caa2836428ad"},
		{"motif-5", motif.Clique(5), 10, "ce67752783dfed32"},
	}
	for _, c := range cases {
		set, err := prototype.Generate(c.tpl, c.k)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := pinHash(set); got != c.want {
			t.Errorf("%s (k=%d, %d prototypes): hash %s, want %s", c.name, c.k, len(set.Protos), got, c.want)
		}
	}
}

// pinHash digests set's shape and every prototype's canonical and symmetry
// data in a fixed order.
func pinHash(set *prototype.Set) string {
	h := sha256.New()
	for _, p := range set.Protos {
		tpl := p.Template
		fmt.Fprintf(h, "proto %d dist %d mask %x parents %v children %v\n", p.Index, p.Dist, p.EdgeMask, p.Parents, p.Children)
		fmt.Fprintf(h, "code %s\nkey %s\n", pattern.CanonicalCode(tpl), pattern.CanonicalKey(tpl))
		form, toCanon := pattern.CanonicalForm(tpl)
		fmt.Fprintf(h, "form %v %s\n", toCanon, pattern.CanonicalKey(form))
		writeAutomorphisms(h, pattern.Automorphisms(tpl))
		fmt.Fprintf(h, "count %d\n", pattern.CountAutomorphisms(tpl))
	}
	masks := make([]uint64, 0, len(set.ByMask))
	for m := range set.ByMask {
		masks = append(masks, m)
	}
	sort.Slice(masks, func(i, j int) bool { return masks[i] < masks[j] })
	for _, m := range masks {
		fmt.Fprintf(h, "bymask %x %d\n", m, set.ByMask[m])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func writeAutomorphisms(h hash.Hash, auts [][]int) {
	fmt.Fprintf(h, "auts %d nil=%v\n", len(auts), auts == nil)
	for _, p := range auts {
		fmt.Fprintf(h, "%v\n", p)
	}
}

// TestCanonicalFlipsPinned pins the canonical data of every single-edge-flip
// variant (prototype.Flips) of the paper's queries: each flip's removed and
// added edge, its CanonicalCode, CanonicalKey and CanonicalForm relabeling.
// amatch -flips searches these templates, so a refactor of canonicalization
// must leave every hash unchanged.
func TestCanonicalFlipsPinned(t *testing.T) {
	rmat := datagen.RMAT1(eval.RMAT.Graph(true))
	cases := []struct {
		name string
		tpl  *pattern.Template
		want string
	}{
		{"WDC-1", datagen.WDC1(), "97506e4a38fd9ee4"},
		{"WDC-2", datagen.WDC2(), "7ae605cb888cf9a7"},
		{"WDC-3", datagen.WDC3(), "3f19b2e2dfb2a9f4"},
		{"RMAT-1", rmat, "a2b8d42a6436f325"},
		{"RDT-1", datagen.RDT1(), "1927ea0cf4f98f47"},
		{"IMDB-1", datagen.IMDB1(), "c73710509d7b7003"},
	}
	for _, c := range cases {
		flips, err := prototype.Flips(c.tpl)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		h := sha256.New()
		for _, f := range flips {
			form, toCanon := pattern.CanonicalForm(f.Template)
			fmt.Fprintf(h, "removed %d added %v canon %s\n", f.Removed, f.Added, f.Canon)
			fmt.Fprintf(h, "code %s\nkey %s\nform %v %s\n", pattern.CanonicalCode(f.Template),
				pattern.CanonicalKey(f.Template), toCanon, pattern.CanonicalKey(form))
		}
		if got := hex.EncodeToString(h.Sum(nil))[:16]; got != c.want {
			t.Errorf("%s (%d flips): hash %s, want %s", c.name, len(flips), got, c.want)
		}
	}
}
