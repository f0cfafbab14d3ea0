package prototype

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"approxmatch/internal/pattern"
)

func mustGen(t *testing.T, tp *pattern.Template, k int) *Set {
	t.Helper()
	s, err := Generate(tp, k)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGenerateBaseOnly(t *testing.T) {
	tp := pattern.MustNew([]pattern.Label{1, 2}, []pattern.Edge{{I: 0, J: 1}})
	s := mustGen(t, tp, 3)
	if s.Count() != 1 || s.MaxDist != 0 {
		t.Fatalf("single-edge template: count=%d maxdist=%d", s.Count(), s.MaxDist)
	}
}

func TestGenerateTriangle(t *testing.T) {
	// Labeled triangle with distinct labels: k=1 gives 3 distinct paths
	// (labels make them non-isomorphic); k=2 disconnects, so MaxDist=1.
	tp := pattern.MustNew([]pattern.Label{1, 2, 3}, []pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}})
	s := mustGen(t, tp, 2)
	if got := s.CountAt(1); got != 3 {
		t.Errorf("k=1 prototypes = %d, want 3", got)
	}
	if s.MaxDist != 1 {
		t.Errorf("MaxDist = %d, want 1", s.MaxDist)
	}
	// Unlabeled triangle: the three paths are isomorphic — one class.
	un := pattern.MustNew(make([]pattern.Label, 3), []pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}})
	s2 := mustGen(t, un, 1)
	if got := s2.CountAt(1); got != 1 {
		t.Errorf("unlabeled k=1 prototypes = %d, want 1", got)
	}
}

func TestGenerateCliqueMotifCounts(t *testing.T) {
	// From an unlabeled 4-clique, the connected ≤k-distance prototypes are
	// exactly the connected 4-vertex graphs: K4, diamond, C4, paw, path,
	// star (6 classes at k ≤ 3).
	labels := make([]pattern.Label, 4)
	var edges []pattern.Edge
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			edges = append(edges, pattern.Edge{I: i, J: j})
		}
	}
	tp := pattern.MustNew(labels, edges)
	s := mustGen(t, tp, 6)
	if s.Count() != 6 {
		t.Errorf("4-clique classes = %d, want 6", s.Count())
	}
	wantAt := map[int]int{0: 1, 1: 1, 2: 2, 3: 2}
	for d, want := range wantAt {
		if got := s.CountAt(d); got != want {
			t.Errorf("distance %d: %d classes, want %d", d, got, want)
		}
	}
	if s.MaxDist != 3 {
		t.Errorf("MaxDist = %d, want 3", s.MaxDist)
	}
}

func TestGenerate6CliqueScale(t *testing.T) {
	// §5.5: the 6-Clique exploratory search sifts through 1,941 prototypes
	// in total; 1,365 at distance k=4. Within k=4 the set is 1+1+2+5+13
	// plus ... the paper's count includes all distances: verify the known
	// number of connected 6-vertex graphs reachable by ≤9 removals is 112
	// classes (total connected 6-vertex graphs); here we check k=4 counts
	// against the brute-force recount below instead of literature numbers.
	labels := make([]pattern.Label, 6)
	var edges []pattern.Edge
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			edges = append(edges, pattern.Edge{I: i, J: j})
		}
	}
	tp := pattern.MustNew(labels, edges)
	s := mustGen(t, tp, 4)
	for d := 0; d <= s.MaxDist; d++ {
		want := bruteClassCount(t, tp, d)
		if got := s.CountAt(d); got != want {
			t.Errorf("6-clique distance %d: %d classes, want %d", d, got, want)
		}
	}
}

// bruteClassCount counts isomorphism classes of connected spanning subgraphs
// of tp with exactly d edges removed, independently of Generate.
func bruteClassCount(t *testing.T, tp *pattern.Template, d int) int {
	t.Helper()
	ne := tp.NumEdges()
	canon := make(map[string]bool)
	full := (uint64(1) << uint(ne)) - 1
	var rec func(mask uint64, next, removed int)
	rec = func(mask uint64, next, removed int) {
		if removed == d {
			sub, err := tp.Restrict(mask)
			if err != nil {
				return
			}
			canon[pattern.CanonicalCode(sub)] = true
			return
		}
		for i := next; i < ne; i++ {
			if tp.Mandatory(i) {
				continue
			}
			rec(mask&^(1<<uint(i)), i+1, removed+1)
		}
	}
	rec(full, 0, 0)
	return len(canon)
}

func TestPrototypeDAGInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tp := randomTemplate(rng)
		k := rng.Intn(3)
		s, err := Generate(tp, k)
		if err != nil {
			return false
		}
		for _, p := range s.Protos {
			// Dist equals removed edge count.
			if bits.OnesCount64(s.Protos[0].EdgeMask)-bits.OnesCount64(p.EdgeMask) != p.Dist {
				return false
			}
			// Connectivity & vertex preservation.
			if !p.Template.Connected() || p.Template.NumVertices() != tp.NumVertices() {
				return false
			}
			// Parent/child distances.
			for _, ci := range p.Children {
				if s.Protos[ci].Dist != p.Dist+1 {
					return false
				}
			}
			for _, pi := range p.Parents {
				if s.Protos[pi].Dist != p.Dist-1 {
					return false
				}
			}
			// Mandatory edges retained.
			for i := 0; i < tp.NumEdges(); i++ {
				if tp.Mandatory(i) && p.EdgeMask&(1<<uint(i)) == 0 {
					return false
				}
			}
		}
		// No two prototypes at the same distance are isomorphic.
		for d := 0; d <= s.MaxDist; d++ {
			ids := s.At(d)
			for i := 0; i < len(ids); i++ {
				for j := i + 1; j < len(ids); j++ {
					if pattern.Isomorphic(s.Protos[ids[i]].Template, s.Protos[ids[j]].Template) {
						return false
					}
				}
			}
			// Class counts match brute force.
			if s.CountAt(d) != bruteClassCount(t, tp, d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMandatoryEdgesNeverRemoved(t *testing.T) {
	tp, err := pattern.NewWithMandatory(
		[]pattern.Label{1, 2, 3},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}},
		[]bool{true, false, false},
	)
	if err != nil {
		t.Fatal(err)
	}
	s := mustGen(t, tp, 2)
	// Only edges 1 and 2 are removable; removing either leaves a connected
	// path; removing both disconnects. So: base + 2 prototypes at k=1.
	if s.Count() != 3 || s.CountAt(1) != 2 || s.MaxDist != 1 {
		t.Fatalf("mandatory generation: count=%d at1=%d maxdist=%d", s.Count(), s.CountAt(1), s.MaxDist)
	}
}

func TestRemovedLabelPairs(t *testing.T) {
	tp := pattern.MustNew([]pattern.Label{1, 2, 3}, []pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}})
	s := mustGen(t, tp, 1)
	pairs := s.RemovedLabelPairs(1)
	// Each k=1 prototype misses one distinct edge; all three label pairs
	// appear, and nothing else matches.
	for _, want := range [][2]pattern.Label{{1, 2}, {2, 3}, {1, 3}} {
		if !pairs.Matches(want[0], want[1]) {
			t.Errorf("pair %v missing", want)
		}
	}
	if pairs.Matches(1, 1) || pairs.Matches(7, 8) {
		t.Error("unexpected pair matched")
	}
}

func TestByMaskCoversAllConnectedSubsets(t *testing.T) {
	tp := pattern.MustNew(make([]pattern.Label, 4),
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 2, J: 3}, {I: 0, J: 3}, {I: 0, J: 2}})
	s := mustGen(t, tp, 2)
	full := (uint64(1) << 5) - 1
	for d := 1; d <= s.MaxDist; d++ {
		// Every connected mask at distance d must be present in ByMask.
		var rec func(mask uint64, next, removed int)
		rec = func(mask uint64, next, removed int) {
			if removed == d {
				if _, err := tp.Restrict(mask); err != nil {
					return
				}
				if _, ok := s.ByMask[mask]; !ok {
					t.Errorf("connected mask %b at distance %d missing from ByMask", mask, d)
				}
				return
			}
			for i := next; i < 5; i++ {
				rec(mask&^(1<<uint(i)), i+1, removed+1)
			}
		}
		rec(full, 0, 0)
	}
}

func randomTemplate(rng *rand.Rand) *pattern.Template {
	n := 2 + rng.Intn(4)
	labels := make([]pattern.Label, n)
	for i := range labels {
		labels[i] = pattern.Label(rng.Intn(3))
	}
	var edges []pattern.Edge
	for v := 1; v < n; v++ {
		edges = append(edges, pattern.Edge{I: rng.Intn(v), J: v})
	}
	for i := 0; i < rng.Intn(3); i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		e := pattern.Edge{I: a, J: b}
		dup := false
		for _, x := range edges {
			if x == e {
				dup = true
				break
			}
		}
		if !dup {
			edges = append(edges, e)
		}
	}
	tp, err := pattern.New(labels, edges)
	if err != nil {
		panic(err)
	}
	return tp
}

func TestGenerateErrors(t *testing.T) {
	tp := pattern.MustNew([]pattern.Label{1, 2}, []pattern.Edge{{I: 0, J: 1}})
	if _, err := Generate(tp, -1); err == nil {
		t.Error("negative k accepted")
	}
}

func TestMaskCountsMatchPaperScale(t *testing.T) {
	// 6-clique: mask counts per level are the binomials C(15, d) (every
	// ≤4-removal subset stays connected), totaling the paper's 1,941.
	labels := make([]pattern.Label, 6)
	var edges []pattern.Edge
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			edges = append(edges, pattern.Edge{I: i, J: j})
		}
	}
	s := mustGen(t, pattern.MustNew(labels, edges), 4)
	want := []int{1, 15, 105, 455, 1365}
	total := 0
	for d, w := range want {
		if got := s.MaskCountAt(d); got != w {
			t.Errorf("mask count at %d = %d, want %d", d, got, w)
		}
		total += w
	}
	if s.MaskCount() != total {
		t.Errorf("MaskCount = %d, want %d", s.MaskCount(), total)
	}
}

func TestRemovedEdgeHelper(t *testing.T) {
	tp := pattern.MustNew([]pattern.Label{1, 2, 3},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}})
	s := mustGen(t, tp, 1)
	base := s.Protos[0]
	for _, ci := range base.Children {
		ids := s.RemovedEdge(0, ci)
		if len(ids) != 1 {
			t.Errorf("child %d: removed edges = %v", ci, ids)
		}
		if s.Protos[ci].EdgeMask|1<<uint(ids[0]) != base.EdgeMask {
			t.Errorf("child %d: mask relation broken", ci)
		}
	}
	// At/CountAt out-of-range behave.
	if s.At(99) != nil || s.CountAt(99) != 0 || s.CountAt(-1) != 0 {
		t.Error("out-of-range distance mishandled")
	}
}

func TestFlipsDirect(t *testing.T) {
	// C4 with distinct labels: each flip removes a cycle edge and adds a
	// diagonal, producing triangle-with-tail shapes.
	tp := pattern.MustNew([]pattern.Label{1, 2, 3, 4},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 2, J: 3}, {I: 0, J: 3}})
	flips, err := Flips(tp)
	if err != nil {
		t.Fatal(err)
	}
	if len(flips) == 0 {
		t.Fatal("no flips for C4")
	}
	seen := map[string]bool{pattern.CanonicalCode(tp): true}
	for _, f := range flips {
		if f.Template.NumEdges() != 4 || !f.Template.Connected() {
			t.Errorf("flip shape wrong: %v", f.Template)
		}
		if seen[f.Canon] {
			t.Errorf("duplicate flip class %q", f.Canon)
		}
		seen[f.Canon] = true
		if !tp.HasEdge(f.Added.I, f.Added.J) == false {
			// Added edge must have been absent in the base.
			t.Errorf("added edge %v existed", f.Added)
		}
	}
	// Edge-labeled base: added edges carry the wildcard.
	el, err := pattern.NewEdgeLabeled([]pattern.Label{1, 2, 3},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}}, []pattern.Label{5, 6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	flips, err = Flips(el)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flips {
		id := f.Template.EdgeID(f.Added.I, f.Added.J)
		if f.Template.EdgeLabel(id) != pattern.Wildcard {
			t.Errorf("added edge label = %d, want wildcard", f.Template.EdgeLabel(id))
		}
	}
}
