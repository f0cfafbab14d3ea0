package core

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
	"approxmatch/internal/refmatch"
)

// Randomized differential suite for the kernel redundancy eliminations:
// symmetry breaking, failure guards and degree relabeling are all
// result-invariant by design, so every knob combination must produce the
// same Rho, the same per-prototype counts (restricted representatives ×
// orbit size), and — through the external-id seam — identical enumerations.
// The refmatch backtracker serves as the independent oracle.

// knobConfigs enumerates the four symmetry/guard ablation combinations.
func knobConfigs(k int) []Config {
	var out []Config
	for _, noSym := range []bool{false, true} {
		for _, noGuard := range []bool{false, true} {
			cfg := DefaultConfig(k)
			cfg.CountMatches = true
			cfg.kernelOpts = kernelOpts{noSymmetry: noSym, noGuards: noGuard}
			out = append(out, cfg)
		}
	}
	return out
}

// TestKnobDifferentialRandomized cross-checks all four knob combinations
// against each other and against the refmatch oracle on random inputs: Rho
// bit-identical, per-prototype counts identical, counts matching the
// oracle.
func TestKnobDifferentialRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(rng, 28+rng.Intn(20), 60+rng.Intn(80), 3)
		tp := randomTemplate(rng, 4, 3)
		k := rng.Intn(2)

		var base *Result
		for ci, cfg := range knobConfigs(k) {
			res, err := Run(g, tp, cfg)
			if err != nil {
				t.Fatalf("trial %d cfg %d: %v", trial, ci, err)
			}
			if ci == 0 {
				base = res
				continue
			}
			if !res.Rho.Equal(base.Rho) {
				t.Fatalf("trial %d: Rho differs between knob configs 0 and %d (noSym=%v noGuards=%v)",
					trial, ci, cfg.kernelOpts.noSymmetry, cfg.kernelOpts.noGuards)
			}
			for pi := range res.Solutions {
				if res.Solutions[pi].MatchCount != base.Solutions[pi].MatchCount {
					t.Fatalf("trial %d proto %d: count %d under cfg %d, %d under cfg 0",
						trial, pi, res.Solutions[pi].MatchCount, ci, base.Solutions[pi].MatchCount)
				}
			}
		}

		for pi, p := range base.Set.Protos {
			if want := refmatch.Count(g, p.Template, false); base.Solutions[pi].MatchCount != want {
				t.Fatalf("trial %d proto %d: pipeline count %d, refmatch oracle %d",
					trial, pi, base.Solutions[pi].MatchCount, want)
			}
		}
	}
}

// TestSymmetryBreakingReducesExpansions pins the point of the optimization:
// on a symmetric template the restricted enumeration explores ~1/|Aut(T)| of
// the expansions while producing the exact oracle count.
func TestSymmetryBreakingReducesExpansions(t *testing.T) {
	cases := []struct {
		name string
		text string
		aut  int64
	}{
		{"triangle", "v 0 0\nv 1 0\nv 2 0\ne 0 1\ne 1 2\ne 0 2\n", 6},
		{"4clique", "v 0 0\nv 1 0\nv 2 0\nv 3 0\ne 0 1\ne 0 2\ne 0 3\ne 1 2\ne 1 3\ne 2 3\n", 24},
	}
	rng := rand.New(rand.NewSource(19))
	// Dense single-label graph: most partial embeddings complete, so the
	// expansion ratio approaches the |Aut| asymptote instead of being
	// swamped by shared dead-end prefixes.
	g := randomGraph(rng, 24, 500, 1)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tp, err := pattern.Parse(strings.NewReader(tc.text))
			if err != nil {
				t.Fatal(err)
			}
			run := func(noSym bool) (int64, int64) {
				cfg := DefaultConfig(0)
				cfg.CountMatches = true
				cfg.kernelOpts.noSymmetry = noSym
				res, err := Run(g, tp, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res.Solutions[0].MatchCount, res.Metrics.EnumExpansions
			}
			symCount, symExp := run(false)
			fullCount, fullExp := run(true)
			if want := refmatch.Count(g, tp, false); symCount != want || fullCount != want {
				t.Fatalf("counts: sym=%d full=%d oracle=%d", symCount, fullCount, want)
			}
			if symExp == 0 {
				t.Skip("no matches on this random graph; nothing to compare")
			}
			// The asymptotic reduction is |Aut|; partial embeddings that die
			// before completion blunt it, so require at least half.
			if ratio := float64(fullExp) / float64(symExp); ratio < float64(tc.aut)/2 {
				t.Errorf("expansion reduction %.2fx, want >= %.1fx (|Aut|=%d, sym=%d full=%d)",
					ratio, float64(tc.aut)/2, tc.aut, symExp, fullExp)
			}
		})
	}
}

// TestGuardsReduceVerifyWork checks the guards fire at all on a pruning-heavy
// instance and never change the solution.
func TestGuardsReduceVerifyWork(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 64, 500, 2)
	tp := mustTemplate(t, "v 0 0\nv 1 1\nv 2 0\nv 3 1\ne 0 1\ne 1 2\ne 2 3\ne 0 3\n")
	run := func(noGuards bool) *Result {
		cfg := DefaultConfig(1)
		cfg.CountMatches = true
		cfg.kernelOpts.noGuards = noGuards
		res, err := Run(g, tp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	guarded, plain := run(false), run(true)
	if !guarded.Rho.Equal(plain.Rho) {
		t.Fatal("guards changed Rho")
	}
	if guarded.TotalMatchCount() != plain.TotalMatchCount() {
		t.Fatalf("guards changed counts: %d vs %d",
			guarded.TotalMatchCount(), plain.TotalMatchCount())
	}
	if plain.Metrics.GuardHits != 0 || plain.Metrics.GuardsSet != 0 {
		t.Fatalf("NoGuards run still recorded guard activity: hits=%d set=%d",
			plain.Metrics.GuardHits, plain.Metrics.GuardsSet)
	}
	if guarded.Metrics.VerifyMessages > plain.Metrics.VerifyMessages {
		t.Errorf("guards increased verify messages: %d > %d",
			guarded.Metrics.VerifyMessages, plain.Metrics.VerifyMessages)
	}
}

// TestCountingLeafMatchesEnumeration pins the counting kernel against full
// enumeration and the refmatch oracle under all four symmetry × guard
// combinations. Counting differs from enumerating in two places: its last
// order position counts consistent candidates in place, and it folds pendant
// trees into per-vertex weights (planCount). The shapes cover templates with
// non-trivial automorphisms and repeated labels (where a wrong injectivity,
// restriction or guard decision at the leaf changes the count), shapes the
// fold must take — tails, stars, pendants on two core vertices, a tree that
// folds down to its root, a labelled tail edge — and shapes it must refuse:
// a pendant whose label repeats in the core, a wildcard pendant, pendants
// inside a symmetry restriction, and same-label leaves told apart only by
// edge labels. The plan accessor pins which is which. A plan that folds
// nothing does the same work as enumeration counter for counter; a plan that
// folds expands and messages no more than enumeration does.
func TestCountingLeafMatchesEnumeration(t *testing.T) {
	one := func(n int) []pattern.Label { return make([]pattern.Label, n) }
	labelled := func(ls []pattern.Label, es []pattern.Edge, els []pattern.Label) *pattern.Template {
		tp, err := pattern.NewEdgeLabeled(ls, es, els, nil)
		if err != nil {
			t.Fatal(err)
		}
		return tp
	}
	triangle := []pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}}
	plus := func(es ...pattern.Edge) []pattern.Edge { return append(append([]pattern.Edge{}, triangle...), es...) }
	const w = pattern.Wildcard
	// Graph kinds: 2 or 4 vertex labels, or 4 vertex and 2 edge labels.
	const (
		twoLabels = iota
		fourLabels
		edgeLabels
	)
	shapes := map[string]struct {
		tp    *pattern.Template
		graph int
		folds int // folded template vertices, under every knob combination
	}{
		"vertex":   {pattern.MustNew(one(1), nil), twoLabels, 0},
		"edge":     {pattern.MustNew(one(2), []pattern.Edge{{I: 0, J: 1}}), twoLabels, 0},
		"triangle": {pattern.MustNew(one(3), triangle), twoLabels, 0},
		"4-clique": {pattern.MustNew(one(4), []pattern.Edge{{I: 0, J: 1}, {I: 0, J: 2}, {I: 0, J: 3}, {I: 1, J: 2}, {I: 1, J: 3}, {I: 2, J: 3}}), twoLabels, 0},
		"star":     {pattern.MustNew([]pattern.Label{1, 0, 0, 0}, []pattern.Edge{{I: 0, J: 1}, {I: 0, J: 2}, {I: 0, J: 3}}), twoLabels, 0},
		// Fold-eligible.
		"tailed triangle":     {pattern.MustNew([]pattern.Label{0, 0, 0, 1}, plus(pattern.Edge{I: 2, J: 3})), twoLabels, 1},
		"two-edge tail":       {pattern.MustNew([]pattern.Label{0, 1, 0, 2, 3}, plus(pattern.Edge{I: 2, J: 3}, pattern.Edge{I: 3, J: 4})), fourLabels, 2},
		"distinct-label star": {pattern.MustNew([]pattern.Label{0, 1, 2, 3}, []pattern.Edge{{I: 0, J: 1}, {I: 0, J: 2}, {I: 0, J: 3}}), fourLabels, 3},
		"two pendants":        {pattern.MustNew([]pattern.Label{0, 0, 1, 2, 3}, plus(pattern.Edge{I: 0, J: 3}, pattern.Edge{I: 1, J: 4})), fourLabels, 2},
		"tree to root":        {pattern.MustNew([]pattern.Label{0, 1, 2, 3}, []pattern.Edge{{I: 0, J: 1}, {I: 0, J: 2}, {I: 1, J: 3}}), fourLabels, 3},
		"labelled tail":       {labelled([]pattern.Label{0, 0, 1, 2}, plus(pattern.Edge{I: 2, J: 3}), []pattern.Label{w, w, w, 1}), edgeLabels, 1},
		// Fold-blocked.
		"pendant repeats core label": {pattern.MustNew([]pattern.Label{0, 0, 1, 1}, plus(pattern.Edge{I: 0, J: 3})), twoLabels, 0},
		"wildcard pendant":           {pattern.MustNew([]pattern.Label{0, 0, 0, w}, plus(pattern.Edge{I: 2, J: 3})), twoLabels, 0},
		"restricted pendants":        {pattern.MustNew([]pattern.Label{0, 1, 1, 2, 2}, plus(pattern.Edge{I: 1, J: 3}, pattern.Edge{I: 2, J: 4})), fourLabels, 0},
		"edge-label twins":           {labelled([]pattern.Label{0, 1, 1}, []pattern.Edge{{I: 0, J: 1}, {I: 0, J: 2}}, []pattern.Label{0, 1}), edgeLabels, 0},
		"tail blocked at its tip":    {pattern.MustNew([]pattern.Label{0, 1, 0, 2, 1}, plus(pattern.Edge{I: 2, J: 3}, pattern.Edge{I: 3, J: 4})), fourLabels, 0},
	}
	rng := rand.New(rand.NewSource(2403))
	matched := map[string]bool{}
	for trial := 0; trial < 6; trial++ {
		// Dense enough that same-label 4-cliques exist.
		graphs := [...]*graph.Graph{
			twoLabels:  randomGraph(rng, 24+rng.Intn(8), 200+rng.Intn(100), 2),
			fourLabels: randomGraph(rng, 24+rng.Intn(8), 200+rng.Intn(100), 4),
			edgeLabels: randomEdgeLabeledGraph(rng, 24+rng.Intn(8), 200+rng.Intn(100), 4, 2),
		}
		for name, sh := range shapes {
			g, tp := graphs[sh.graph], sh.tp
			want := refmatch.Count(g, tp, false)
			matched[name] = matched[name] || want > 0
			for _, opts := range []kernelOpts{{}, {noSymmetry: true}, {noGuards: true}, {noSymmetry: true, noGuards: true}} {
				s := NewFullState(g)
				folds := 0
				if p := planCount(s, initCandidates(s, tp), tp, opts, nil); p.fold != nil {
					folds = len(p.fold.folded)
				}
				if folds != sh.folds {
					t.Errorf("trial %d %s %+v: %d vertices folded, want %d", trial, name, opts, folds, sh.folds)
				}
				var cm, em Metrics
				count := countMatches(s, initCandidates(s, tp), tp, nil, &cm, opts)
				var yielded int64
				enumerateMatches(s, initCandidates(s, tp), tp, nil, &em, opts, func([]graph.VertexID) bool {
					yielded++
					return true
				})
				if count != yielded || count != want {
					t.Errorf("trial %d %s %+v: counted %d, enumerated %d, oracle %d", trial, name, opts, count, yielded, want)
				}
				if folds == 0 && cm != em {
					t.Errorf("trial %d %s %+v: counting and enumerating did different work:\n count %+v\n enum  %+v", trial, name, opts, cm, em)
				}
				if cm.EnumExpansions > em.EnumExpansions || cm.VerifyMessages > em.VerifyMessages {
					t.Errorf("trial %d %s %+v: folded count did more work than enumeration: expansions %d > %d or messages %d > %d",
						trial, name, opts, cm.EnumExpansions, em.EnumExpansions, cm.VerifyMessages, em.VerifyMessages)
				}
			}
		}
	}
	for name := range shapes {
		if !matched[name] {
			t.Errorf("%s: no fixture held a match", name)
		}
	}

	// A restriction alone blocks a fold: the tailed triangle's tail is
	// ω-exclusive, and folds until a restriction names it.
	g := randomGraph(rng, 24, 200, 2)
	tp := shapes["tailed triangle"].tp
	s := NewFullState(g)
	peel, parent := peelTails(tp, rootVertex(tp))
	if got, _ := foldable(s, initCandidates(s, tp), peel, parent, nil); got != 1<<3 {
		t.Fatalf("tail not foldable without restrictions: mask %b", got)
	}
	if got, _ := foldable(s, initCandidates(s, tp), peel, parent, []pattern.Restriction{{A: 0, B: 3}}); got != 0 {
		t.Fatalf("restricted tail still folds: mask %b", got)
	}
}

// TestCountBudgetBindsInWeightPass pins that the fold's weight pass is
// charged: on a star that folds down to its root, the enumerator ticks once
// per active vertex and every other work unit is a slot the weight pass
// read, so a MaxWork of half the count's unbudgeted work runs out inside the
// weight pass, and the count aborts with the budget error.
func TestCountBudgetBindsInWeightPass(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	g := randomGraph(rng, 600, 12000, 4)
	tp := pattern.MustNew([]pattern.Label{0, 1, 2, 3}, []pattern.Edge{{I: 0, J: 1}, {I: 0, J: 2}, {I: 0, J: 3}})
	count := func(maxWork int64) (n, used int64, err error) {
		tracker := NewBudgetTracker(Budget{MaxWork: maxWork})
		defer func() { used = tracker.WorkUsed() }()
		defer RecoverCancel(&err)
		var m Metrics
		return CountOn(WithBudgetTracker(context.Background(), tracker), NewFullState(g), tp, &m), 0, nil
	}
	n, work, err := count(1 << 62)
	if err != nil || n != refmatch.Count(g, tp, false) {
		t.Fatalf("unbudgeted count %d (err %v), oracle %d", n, err, refmatch.Count(g, tp, false))
	}
	if work < 4*int64(g.NumVertices()) {
		t.Fatalf("count charged %d work units for %d vertices: the weight pass is not most of the work", work, g.NumVertices())
	}
	if _, used, err := count(work / 2); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("MaxWork %d of %d: count finished (err %v, %d used)", work/2, work, err, used)
	}
}

func mustTemplate(t *testing.T, text string) *pattern.Template {
	t.Helper()
	tp, err := pattern.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// matchKey renders one enumerated match as a canonical string.
func matchKey(m []graph.VertexID) string {
	var sb strings.Builder
	for i, v := range m {
		if i > 0 {
			sb.WriteByte(',')
		}
		for _, c := range []byte{byte('0' + v/10000%10), byte('0' + v/1000%10), byte('0' + v/100%10), byte('0' + v/10%10), byte('0' + v%10)} {
			sb.WriteByte(c)
		}
	}
	return sb.String()
}

// enumSet collects prototype pi's enumeration as a sorted multiset of
// external-id tuples.
func enumSet(r *Result, pi int) []string {
	var out []string
	r.EnumerateMatches(pi, func(m []graph.VertexID) bool {
		out = append(out, matchKey(m))
		return true
	})
	sort.Strings(out)
	return out
}

// TestRelabelDifferentialRandomized runs the pipeline on a graph and on its
// degree-relabeled twin and checks every externally visible artifact is
// identical: membership per external id, per-prototype counts, and the full
// enumeration (external tuples). Incremental maintenance across an
// externally-addressed delta must agree too — the /ingest path's contract.
func TestRelabelDifferentialRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 12; trial++ {
		g := randomGraph(rng, 30+rng.Intn(16), 70+rng.Intn(60), 3)
		rg := graph.RelabelByDegree(g)
		tp := randomTemplate(rng, 4, 3)
		cfg := DefaultConfig(1)
		cfg.CountMatches = true

		plain, err := Run(g, tp, cfg)
		if err != nil {
			t.Fatalf("trial %d plain: %v", trial, err)
		}
		rel, err := Run(rg, tp, cfg)
		if err != nil {
			t.Fatalf("trial %d relabeled: %v", trial, err)
		}

		if len(plain.Solutions) != len(rel.Solutions) {
			t.Fatalf("trial %d: prototype count differs", trial)
		}
		for pi := range plain.Solutions {
			if plain.Solutions[pi].MatchCount != rel.Solutions[pi].MatchCount {
				t.Fatalf("trial %d proto %d: plain count %d, relabeled %d",
					trial, pi, plain.Solutions[pi].MatchCount, rel.Solutions[pi].MatchCount)
			}
			for e := 0; e < g.NumVertices(); e++ {
				iv := int(rg.InternalID(graph.VertexID(e)))
				if plain.Rho.Get(e, pi) != rel.Rho.Get(iv, pi) {
					t.Fatalf("trial %d proto %d external vertex %d: membership differs under relabeling",
						trial, pi, e)
				}
			}
			p, r := enumSet(plain, pi), enumSet(rel, pi)
			if len(p) != len(r) {
				t.Fatalf("trial %d proto %d: %d vs %d enumerated matches", trial, pi, len(p), len(r))
			}
			for i := range p {
				if p[i] != r[i] {
					t.Fatalf("trial %d proto %d: enumeration differs at %d: %q vs %q",
						trial, pi, i, p[i], r[i])
				}
			}
		}

		// One externally-addressed delta, maintained incrementally on both
		// sides of the seam.
		d := randomExternalDelta(rng, g)
		if d == nil {
			continue
		}
		ng, changed, err := graph.ApplyDelta(g, d)
		if err != nil {
			t.Fatalf("trial %d apply plain: %v", trial, err)
		}
		nrg, rchanged, err := graph.ApplyDelta(rg, graph.TranslateDeltaToInternal(rg, d))
		if err != nil {
			t.Fatalf("trial %d apply relabeled: %v", trial, err)
		}
		nextPlain, _, err := RunIncrementalContext(context.Background(), plain, ng, changed, cfg)
		if err != nil {
			t.Fatalf("trial %d incremental plain: %v", trial, err)
		}
		nextRel, _, err := RunIncrementalContext(context.Background(), rel, nrg, rchanged, cfg)
		if err != nil {
			t.Fatalf("trial %d incremental relabeled: %v", trial, err)
		}
		for pi := range nextPlain.Solutions {
			if nextPlain.Solutions[pi].MatchCount != nextRel.Solutions[pi].MatchCount {
				t.Fatalf("trial %d proto %d post-delta: plain count %d, relabeled %d",
					trial, pi, nextPlain.Solutions[pi].MatchCount, nextRel.Solutions[pi].MatchCount)
			}
			for e := 0; e < ng.NumVertices(); e++ {
				iv := int(nrg.InternalID(graph.VertexID(e)))
				if nextPlain.Rho.Get(e, pi) != nextRel.Rho.Get(iv, pi) {
					t.Fatalf("trial %d proto %d external vertex %d: post-delta membership differs",
						trial, pi, e)
				}
			}
		}
	}
}

// randomExternalDelta builds a small valid delta in g's external id space
// (g itself is unrelabeled, so external == its own ids): one edge insert,
// one delete, one relabel. Returns nil if no valid insert exists.
func randomExternalDelta(rng *rand.Rand, g *graph.Graph) *graph.Delta {
	n := g.NumVertices()
	b := graph.NewDeltaBuilder()
	inserted := false
	for tries := 0; tries < 60 && !inserted; tries++ {
		u, v := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		b.InsertEdge(u, v)
		inserted = true
	}
	if !inserted {
		return nil
	}
	for tries := 0; tries < 60; tries++ {
		u := graph.VertexID(rng.Intn(n))
		ns := g.Neighbors(u)
		if len(ns) == 0 {
			continue
		}
		b.DeleteEdge(u, ns[rng.Intn(len(ns))])
		break
	}
	b.RelabelVertex(graph.VertexID(rng.Intn(n)), graph.Label(rng.Intn(3)))
	return b.Delta()
}
