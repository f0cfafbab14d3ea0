package constraint

import (
	"runtime"
	"slices"
	"testing"

	"approxmatch/internal/pattern"
)

func triangle() *pattern.Template {
	return pattern.MustNew([]pattern.Label{1, 2, 3},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}})
}

func TestLocalSufficient(t *testing.T) {
	tree := pattern.MustNew([]pattern.Label{1, 2, 3}, []pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}})
	if !LocalSufficient(tree) {
		t.Error("distinct-label tree: LCC alone should be exact")
	}
	edgeLabeledTree, err := pattern.NewEdgeLabeled([]pattern.Label{1, 2, 3},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}}, []pattern.Label{4, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, tp := range map[string]*pattern.Template{
		"distinct-label triangle": triangle(),
		"repeated-label tree":     pattern.MustNew([]pattern.Label{1, 2, 1}, []pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}}),
		"wildcard tree":           pattern.MustNew([]pattern.Label{1, pattern.Wildcard, 3}, []pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}}),
		"edge-labeled tree":       edgeLabeledTree,
	} {
		if LocalSufficient(tp) {
			t.Errorf("%s: LCC alone is not exact", name)
		}
	}
}

func TestGenerateTriangleConstraints(t *testing.T) {
	pruning := generate(triangle())
	ccs := 0
	for _, w := range pruning {
		if w.Kind == CC {
			ccs++
			// Cycle closure: first == last, length 4 (3 hops).
			if w.Seq[0] != w.Seq[len(w.Seq)-1] || w.Len() != 3 {
				t.Errorf("bad CC walk %v", w)
			}
		}
	}
	if ccs != 1 || len(pruning) != 1 {
		t.Errorf("triangle walks = %v, want one CC", pruning)
	}
}

func TestGeneratePathConstraints(t *testing.T) {
	// Tree with two label-1 vertices at distance 2.
	tp := pattern.MustNew([]pattern.Label{1, 2, 1}, []pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}})
	pruning := generate(tp)
	pcs := 0
	for _, w := range pruning {
		if w.Kind == PC {
			pcs++
			if w.Seq[0] != 0 || w.Seq[len(w.Seq)-1] != 2 {
				t.Errorf("PC endpoints wrong: %v", w)
			}
		}
	}
	if pcs != 1 {
		t.Errorf("PCs = %d, want 1", pcs)
	}
}

// TestCombinedCycleWalkCoversItsCycles checks that every combined-cycle
// walk steps only along template edges, starts on a vertex of both cycles
// and covers exactly the union of its two cycles' edges.
func TestCombinedCycleWalkCoversItsCycles(t *testing.T) {
	cases := map[string]*pattern.Template{
		"diamond": pattern.Diamond([4]pattern.Label{}),
		"house":   pattern.House([5]pattern.Label{1, 2, 3, 4, 5}),
		"K4":      pattern.CliqueN(pattern.Unlabeled(4)),
		"K5":      pattern.CliqueN([]pattern.Label{1, 1, 2, 2, 3}),
	}
	edgesOf := func(seq []int, closed bool) map[pattern.Edge]bool {
		out := make(map[pattern.Edge]bool)
		for i := 0; i < len(seq); i++ {
			j := i + 1
			if j == len(seq) {
				if !closed {
					break
				}
				j = 0
			}
			a, b := min(seq[i], seq[j]), max(seq[i], seq[j])
			out[pattern.Edge{I: a, J: b}] = true
		}
		return out
	}
	for name, tp := range cases {
		cycles := tp.SimpleCycles()
		pairs := pattern.CyclesSharingEdges(cycles, maxCombinedCyclePairs)
		if len(pairs) == 0 {
			t.Fatalf("%s: no edge-sharing cycle pairs", name)
		}
		for _, pr := range pairs {
			c1, c2 := cycles[pr[0]], cycles[pr[1]]
			w := combinedCycleWalk(tp, c1, c2)
			if w == nil || w.Kind != TDS {
				t.Fatalf("%s %v+%v: walk %v", name, c1, c2, w)
			}
			if !containsInt(c1, w.Seq[0]) || !containsInt(c2, w.Seq[0]) {
				t.Errorf("%s %v+%v: walk %v starts off the shared part", name, c1, c2, w)
			}
			for i := 0; i+1 < len(w.Seq); i++ {
				if !tp.HasEdge(w.Seq[i], w.Seq[i+1]) {
					t.Fatalf("%s: walk step %d-%d not a template edge", name, w.Seq[i], w.Seq[i+1])
				}
			}
			want := edgesOf(c1, true)
			for e := range edgesOf(c2, true) {
				want[e] = true
			}
			got := edgesOf(w.Seq, false)
			if len(got) != len(want) {
				t.Errorf("%s %v+%v: walk %v covers %d edges, want %d", name, c1, c2, w, len(got), len(want))
			}
			for e := range want {
				if !got[e] {
					t.Errorf("%s %v+%v: walk %v misses edge %v", name, c1, c2, w, e)
				}
			}
		}
	}
}

func TestWalkIDSharedAcrossPrototypes(t *testing.T) {
	// The 4-cycle constraint of a template survives edge removal elsewhere;
	// its ID must be identical in both.
	full := pattern.MustNew(make([]pattern.Label, 5),
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 2, J: 3}, {I: 0, J: 3}, {I: 0, J: 4}, {I: 4, J: 2}})
	reduced := pattern.MustNew(make([]pattern.Label, 5),
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 2, J: 3}, {I: 0, J: 3}, {I: 0, J: 4}})
	ids := func(tp *pattern.Template) map[string]bool {
		out := make(map[string]bool)
		pruning := generate(tp)
		for _, w := range pruning {
			if w.Kind == CC && w.Len() == 4 {
				out[w.ID] = true
			}
		}
		return out
	}
	fullIDs, reducedIDs := ids(full), ids(reduced)
	shared := false
	for id := range reducedIDs {
		if fullIDs[id] {
			shared = true
		}
	}
	if !shared {
		t.Errorf("4-cycle constraint not shared: full=%v reduced=%v", fullIDs, reducedIDs)
	}
}

func TestCycleCanonicalizationStable(t *testing.T) {
	// The same cycle discovered in different rotations must get one ID.
	tp := pattern.MustNew([]pattern.Label{1, 2, 3, 4},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 2, J: 3}, {I: 0, J: 3}})
	a := cycleWalk(tp, pattern.Cycle{0, 1, 2, 3})
	b := cycleWalk(tp, pattern.Cycle{1, 2, 3, 0})
	c := cycleWalk(tp, pattern.Cycle{0, 3, 2, 1})
	if a.ID != b.ID || a.ID != c.ID {
		t.Errorf("cycle IDs differ: %q %q %q", a.ID, b.ID, c.ID)
	}
}

func TestOrderWalksByFrequency(t *testing.T) {
	tp := pattern.MustNew([]pattern.Label{1, 2, 3, 1},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}, {I: 2, J: 3}})
	freq := LabelFreq{1: 1000, 2: 10, 3: 100}
	plan := Plan(tp, freq, 1110, 4)
	ce := newCostEstimator(1110, 4, freq)
	for i := 1; i < len(plan); i++ {
		if ce.walkCost(tp, plan[i-1]) > ce.walkCost(tp, plan[i]) {
			t.Errorf("walks not sorted by cost at %d", i)
		}
	}
	// Oriented CC should start at the rarest label on the cycle (label 2).
	for _, w := range plan {
		if w.Kind == CC {
			if tp.Label(w.Seq[0]) != 2 {
				t.Errorf("CC starts at label %d, want 2", tp.Label(w.Seq[0]))
			}
			if w.Seq[0] != w.Seq[len(w.Seq)-1] {
				t.Errorf("oriented CC lost closure: %v", w)
			}
		}
	}
}

func TestOrientPreservesID(t *testing.T) {
	tp := triangle()
	pruning := generate(tp)
	freq := LabelFreq{1: 5, 2: 50, 3: 500}
	for _, w := range pruning {
		o := orientWalk(tp, w, freq)
		if o.ID != w.ID {
			t.Errorf("orientation changed ID: %q -> %q", w.ID, o.ID)
		}
	}
}

func TestCombinedCycleWalks(t *testing.T) {
	// Diamond: two triangles sharing edge (1,2) — one combined TDS pruning
	// walk covering all five edges.
	diamond := pattern.MustNew(make([]pattern.Label, 4),
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}, {I: 1, J: 3}, {I: 2, J: 3}})
	pruning := generate(diamond)
	var combined []*Walk
	for _, w := range pruning {
		if w.Kind == TDS {
			combined = append(combined, w)
		}
	}
	if len(combined) == 0 {
		t.Fatal("no combined-cycle TDS walks generated for the diamond")
	}
	for i, w := range combined {
		if containsWalk(combined[:i], w) {
			t.Errorf("combined walk %v generated twice", w)
		}
	}
	for _, w := range combined {
		// Every step must be a template edge; the walk must cover both
		// cycles' edges (at least 5 distinct for the diamond's two
		// triangles... the pair covers the union of the two cycles).
		covered := make(map[pattern.Edge]bool)
		for i := 0; i+1 < len(w.Seq); i++ {
			a, b := w.Seq[i], w.Seq[i+1]
			if !diamond.HasEdge(a, b) {
				t.Fatalf("walk step %d-%d not an edge", a, b)
			}
			if a > b {
				a, b = b, a
			}
			covered[pattern.Edge{I: a, J: b}] = true
		}
		if len(covered) < 5 {
			t.Errorf("combined walk covers %d edges, want 5", len(covered))
		}
	}
	// Bowtie (vertex-sharing cycles) has no edge-sharing pairs: no
	// combined walks.
	bowtie := pattern.MustNew(make([]pattern.Label, 5),
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}, {I: 2, J: 3}, {I: 3, J: 4}, {I: 2, J: 4}})
	pruning = generate(bowtie)
	for _, w := range pruning {
		if w.Kind == TDS {
			t.Error("bowtie should not generate combined-cycle walks")
		}
	}
}

func TestCombinedCycleWalkSharedAcrossPrototypes(t *testing.T) {
	// K4 vs the diamond obtained by removing edge (0,3): the diamond's
	// shared-edge triangle pair exists in both, so its combined walk ID
	// must be shared.
	full := pattern.MustNew(make([]pattern.Label, 4),
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}, {I: 1, J: 3}, {I: 2, J: 3}, {I: 0, J: 3}})
	reduced := pattern.MustNew(make([]pattern.Label, 4),
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}, {I: 1, J: 3}, {I: 2, J: 3}})
	ids := func(tp *pattern.Template) map[string]bool {
		out := make(map[string]bool)
		pruning := generate(tp)
		for _, w := range pruning {
			if w.Kind == TDS {
				out[w.ID] = true
			}
		}
		return out
	}
	fullIDs, reducedIDs := ids(full), ids(reduced)
	shared := false
	for id := range reducedIDs {
		if fullIDs[id] {
			shared = true
		}
	}
	if !shared {
		t.Errorf("combined walk not shared: %v vs %v", fullIDs, reducedIDs)
	}
}

func TestCostEstimatorOrdering(t *testing.T) {
	// Rare-start short walks must be predicted cheaper than frequent-start
	// long walks.
	tp := pattern.MustNew([]pattern.Label{1, 2, 3, 1},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}, {I: 2, J: 3}})
	ce := newCostEstimator(10000, 8, LabelFreq{1: 5000, 2: 10, 3: 500})
	cheap := &Walk{Kind: CC, Seq: []int{1, 2, 0, 1}}  // starts at rare label 2
	costly := &Walk{Kind: CC, Seq: []int{0, 1, 2, 0}} // starts at frequent label 1
	if ce.walkCost(tp, cheap) >= ce.walkCost(tp, costly) {
		t.Errorf("rare start not cheaper: %.0f vs %.0f",
			ce.walkCost(tp, cheap), ce.walkCost(tp, costly))
	}
	walks := []*Walk{costly, cheap}
	orderByCost(tp, walks, ce)
	if walks[0] != cheap {
		t.Error("ordering did not put the cheap walk first")
	}
}

func TestCostEstimatorMonotonicInLength(t *testing.T) {
	tp := pattern.MustNew([]pattern.Label{1, 1, 1, 1},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 2, J: 3}, {I: 0, J: 3}})
	ce := newCostEstimator(1000, 6, LabelFreq{1: 1000})
	short := &Walk{Kind: PC, Seq: []int{0, 1}}
	long := &Walk{Kind: PC, Seq: []int{0, 1, 2, 3}}
	if ce.walkCost(tp, short) >= ce.walkCost(tp, long) {
		t.Error("longer unselective walk should cost more")
	}
	// Wildcard frequency auto-filled.
	if ce.Freq[pattern.Wildcard] != 1000 {
		t.Error("wildcard frequency not filled")
	}
}

func TestKindStringAndWalkString(t *testing.T) {
	if CC.String() != "CC" || PC.String() != "PC" || TDS.String() != "TDS" {
		t.Error("Kind.String wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind empty")
	}
	w := &Walk{Kind: CC, Seq: []int{0, 1, 2, 0}}
	if w.String() == "" || w.Len() != 3 {
		t.Errorf("walk string/len: %q %d", w.String(), w.Len())
	}
}

func TestOrderWalksNilFreq(t *testing.T) {
	// A diamond with a repeated label has CC, PC and TDS walks.
	tp := pattern.Diamond([4]pattern.Label{1, 2, 3, 1})
	plan := Plan(tp, nil, 0, 0)
	// Kind-sorted: CC (0) before PC (1) before TDS (2).
	for i := 1; i < len(plan); i++ {
		if plan[i-1].Kind > plan[i].Kind {
			t.Errorf("nil-freq plan not kind-sorted: %v", plan)
		}
	}
	// No orientation: every walk is a generated one, in generation order
	// within its kind.
	want := generate(tp)
	if len(plan) != len(want) {
		t.Fatalf("plan has %d walks, generate %d", len(plan), len(want))
	}
	for k := CC; k <= TDS; k++ {
		var got, gen []*Walk
		for i := range plan {
			if plan[i].Kind == k {
				got = append(got, plan[i])
			}
			if want[i].Kind == k {
				gen = append(gen, want[i])
			}
		}
		for i := range got {
			if got[i].ID != gen[i].ID || !slices.Equal(got[i].Seq, gen[i].Seq) {
				t.Errorf("%v walk %d: plan %v, generated %v", k, i, got[i], gen[i])
			}
		}
	}
}

func TestLocalProfileAccessors(t *testing.T) {
	tp := pattern.MustNew([]pattern.Label{1, 2, 2},
		[]pattern.Edge{{I: 0, J: 1}, {I: 0, J: 2}})
	p := BuildLocalProfile(tp)
	if p.Template() != tp {
		t.Error("Template accessor wrong")
	}
	// Vertex 0 has two label-2 neighbors: one group, count 2.
	groups := p.Groups(0)
	if len(groups) != 1 || groups[0].Count != 2 {
		t.Errorf("groups = %+v", groups)
	}
	if p.NbrMask(0) != 0b110 {
		t.Errorf("NbrMask(0) = %b", p.NbrMask(0))
	}
	mp := BuildMandatoryProfile(tp)
	if mp.AllNbr(0) != 0b110 || len(mp.Mandatory(0)) != 0 {
		t.Error("mandatory profile wrong for all-optional template")
	}
}

func TestWalkIDLabelAware(t *testing.T) {
	// Same labeled triangle embedded in two different templates (different
	// vertex indices, different surrounding structure) must share its CC ID —
	// that is what lets a cross-query NLCC store recycle the walk.
	a := pattern.MustNew([]pattern.Label{5, 6, 7},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}})
	b := pattern.MustNew([]pattern.Label{9, 5, 6, 7},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 2, J: 3}, {I: 1, J: 3}})
	ccIDs := func(tp *pattern.Template) map[string]bool {
		pruning := generate(tp)
		out := make(map[string]bool)
		for _, w := range pruning {
			if w.Kind == CC {
				out[w.ID] = true
			}
		}
		return out
	}
	idsA, idsB := ccIDs(a), ccIDs(b)
	shared := false
	for id := range idsA {
		if idsB[id] {
			shared = true
		}
	}
	if !shared {
		t.Errorf("label-identical triangles got no shared CC ID: %v vs %v", idsA, idsB)
	}
	// A triangle with different labels must NOT share an ID with either.
	c := pattern.MustNew([]pattern.Label{5, 6, 8},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}})
	for id := range ccIDs(c) {
		if idsA[id] {
			t.Errorf("triangles with different labels share CC ID %q", id)
		}
	}
}

// TestGenerateDenseCliqueBounded pins the combined-cycle cap on a one-label
// K7 (1,172 simple cycles, hundreds of thousands of edge-sharing pairs):
// the pair scan stops at the cap instead of building every pair first.
func TestGenerateDenseCliqueBounded(t *testing.T) {
	k7 := pattern.CliqueN(pattern.Unlabeled(7))
	if got := len(pattern.CyclesSharingEdges(k7.SimpleCycles(), maxCombinedCyclePairs)); got != maxCombinedCyclePairs {
		t.Errorf("CyclesSharingEdges returned %d pairs, want its limit %d", got, maxCombinedCyclePairs)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	generate(k7)
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 8<<20 {
		t.Errorf("generate on a one-label K7 allocated %d bytes, want < 8 MB", alloc)
	}
}
