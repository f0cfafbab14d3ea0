package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"approxmatch/internal/constraint"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
	"approxmatch/internal/prototype"
	"approxmatch/internal/rmat"
)

// randomDecoratedTemplate builds a small random connected template whose
// labels are sampled from the graph, with optional wildcard vertices and
// optional mandatory edges — the template mix of the kernel-equivalence
// property test.
func randomDecoratedTemplate(rng *rand.Rand, g *graph.Graph) *pattern.Template {
	// Sample labels from live edge endpoints so templates hit the graph's
	// populated label classes (isolated vertices would yield vacuous runs).
	liveLabel := func() pattern.Label {
		for tries := 0; tries < 50; tries++ {
			v := graph.VertexID(rng.Intn(g.NumVertices()))
			if len(g.Neighbors(v)) > 0 {
				return g.Label(v)
			}
		}
		return g.Label(0)
	}
	n := 2 + rng.Intn(3)
	ls := make([]pattern.Label, n)
	for i := range ls {
		ls[i] = liveLabel()
		if rng.Intn(5) == 0 {
			ls[i] = pattern.Wildcard
		}
	}
	var edges []pattern.Edge
	for v := 1; v < n; v++ {
		edges = append(edges, pattern.Edge{I: rng.Intn(v), J: v})
	}
	// Close a cycle often: cyclic templates generate non-local (CC/PC)
	// constraints, so the NLCC walks get exercised.
	if n >= 3 && rng.Intn(3) != 0 {
		e := pattern.Edge{I: 0, J: n - 1}
		dup := false
		for _, x := range edges {
			if x == e {
				dup = true
			}
		}
		if !dup {
			edges = append(edges, e)
		}
	}
	mandatory := make([]bool, len(edges))
	for i := range mandatory {
		mandatory[i] = rng.Intn(5) == 0
	}
	t, err := pattern.NewEdgeLabeled(ls, edges, nil, mandatory)
	if err != nil {
		panic(err)
	}
	return t
}

// assertSameResult asserts bit-identical Rho, Solutions and match counts
// between two runs of the pipeline.
func assertSameResult(t *testing.T, want, got *Result, tag string) {
	t.Helper()
	if !want.Rho.Equal(got.Rho) {
		t.Errorf("%s: Rho differs", tag)
	}
	if len(want.Solutions) != len(got.Solutions) {
		t.Fatalf("%s: %d vs %d solutions", tag, len(want.Solutions), len(got.Solutions))
	}
	for pi := range want.Solutions {
		ws, gs := want.Solutions[pi], got.Solutions[pi]
		if !ws.Verts.Equal(gs.Verts) {
			t.Errorf("%s: proto %d vertex bits differ", tag, pi)
		}
		if !ws.Edges.Equal(gs.Edges) {
			t.Errorf("%s: proto %d edge bits differ", tag, pi)
		}
		if ws.MatchCount != gs.MatchCount {
			t.Errorf("%s: proto %d count %d vs %d", tag, pi, ws.MatchCount, gs.MatchCount)
		}
	}
}

// TestWorkersDifferentialRMAT is the level-parallelism property test: on
// seeded R-MAT graphs with randomized templates (wildcards, mandatory
// edges) and k in {0,1,2}, a level searched on N worker goroutines
// (RunParallelContext at width N) must produce bit-identical Rho, Solutions
// and match counts to the sequential run.
func TestWorkersDifferentialRMAT(t *testing.T) {
	rng := rand.New(rand.NewSource(1701))
	for trial := 0; trial < 10; trial++ {
		p := rmat.Graph500(7, int64(1000+trial))
		p.EdgeFactor = 4
		g := rmat.Generate(p)
		tp := randomDecoratedTemplate(rng, g)
		cfg := DefaultConfig(trial % 3)
		cfg.CountMatches = true
		want, err := Run(g, tp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3} {
			got, err := RunParallelContext(context.Background(), g, tp, cfg, workers)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, want, got, tp.String())
		}
	}
}

// TestWorkersDifferentialEdgeLabels covers the edge-labeled-template corner
// of the property test (R-MAT graphs carry no edge labels).
func TestWorkersDifferentialEdgeLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(1702))
	for trial := 0; trial < 8; trial++ {
		g := randomEdgeLabeledGraph(rng, 40, 120, 3, 2)
		tp := randomEdgeLabeledTemplate(rng, 4, 3, 2)
		cfg := DefaultConfig(trial % 3)
		cfg.CountMatches = true
		want, err := Run(g, tp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunParallelContext(context.Background(), g, tp, cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, want, got, tp.String())
	}
}

// TestWorkersRunParallelMatchesRun: concurrent prototype searches with the
// deprecated, inert Workers field set must still match the fully sequential
// run.
func TestWorkersRunParallelMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(1703))
	g := randomGraph(rng, 40, 110, 3)
	tp := randomTemplate(rng, 4, 3)
	cfg := DefaultConfig(2)
	cfg.CountMatches = true
	want, err := Run(g, tp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 3
	got, err := RunParallelContext(context.Background(), g, tp, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, want, got, tp.String())
}

// counterVector extracts the schedule-sensitive work counters (durations
// excluded).
func counterVector(m *Metrics) []int64 {
	return []int64{
		m.CandidateMessages, m.LCCMessages, m.NLCCMessages, m.VerifyMessages,
		m.TokensInitiated, m.CacheHits, m.LCCIterations, m.VerifySearches,
		m.PrototypesSearched,
	}
}

// TestWorkersCountersScheduleIndependent asserts the counters do not depend
// on how many worker goroutines search a level: without work recycling
// (whose sharing between concurrent searches is a race by design) every
// width reports the same message/iteration counters as the sequential run.
// Each prototype search runs the same sequential kernels whatever goroutine
// it lands on, and a bit-sliced LCC block charges exactly its lanes' lcc
// counters.
func TestWorkersCountersScheduleIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(1704))
	for trial := 0; trial < 4; trial++ {
		g := rmat.Generate(rmat.Params{Scale: 6, EdgeFactor: 4, A: 0.57, B: 0.19, C: 0.19, Seed: int64(trial)})
		tp := randomDecoratedTemplate(rng, g)
		cfg := DefaultConfig(1)
		cfg.WorkRecycling = false
		base, err := Run(g, tp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := counterVector(&base.Metrics)
		for _, workers := range []int{2, 5} {
			res, err := RunParallelContext(context.Background(), g, tp, cfg, workers)
			if err != nil {
				t.Fatal(err)
			}
			got := counterVector(&res.Metrics)
			for i := range want {
				if want[i] != got[i] {
					t.Errorf("%v workers=%d: counter %d = %d, want %d (sequential)",
						tp, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// assertSlotSymmetry asserts the State invariant every kernel must restore
// before it returns: the two directed slots of every edge agree (no dangling
// one-sided slots), and no slot is active at, or toward, an inactive vertex.
func assertSlotSymmetry(t *testing.T, s *State, tag string) {
	t.Helper()
	g := s.Graph()
	for v := 0; v < g.NumVertices(); v++ {
		vid := graph.VertexID(v)
		base := int(g.AdjOffset(vid))
		for i, u := range g.Neighbors(vid) {
			j := g.EdgeIndex(u, vid)
			if j < 0 {
				t.Fatalf("%s: missing reverse slot for (%d,%d)", tag, v, u)
			}
			rev := int(g.AdjOffset(u)) + j
			if s.edges.Get(base+i) != s.edges.Get(rev) {
				t.Fatalf("%s: asymmetric slots for edge (%d,%d): %v vs %v",
					tag, v, u, s.edges.Get(base+i), s.edges.Get(rev))
			}
			if s.edges.Get(base+i) && !(s.verts.Get(v) && s.verts.Get(int(u))) {
				t.Fatalf("%s: active slot (%d,%d) with an inactive endpoint: %v, %v",
					tag, v, u, s.verts.Get(v), s.verts.Get(int(u)))
			}
		}
	}
}

// TestSlotSymmetryAfterKernels runs every kernel — M*, and every lane of an lccBlock over the template's k=1
// prototypes — and asserts the State invariant at each kernel's exit — what
// NumActiveDirectedEdges/StateBytes accounting and CompactState rely on. The
// kernels drop vertices without touching reverse slots, so the trials must
// include kernels that really drop some: the test fails if none did.
func TestSlotSymmetryAfterKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(1705))
	type input struct {
		g  *graph.Graph
		tp *pattern.Template
	}
	var inputs []input
	for trial := 0; trial < 5; trial++ {
		inputs = append(inputs, input{randomEdgeLabeledGraph(rng, 30, 90, 3, 2), randomEdgeLabeledTemplate(rng, 4, 3, 2)})
	}
	for trial := 0; trial < 5; trial++ {
		p := rmat.Graph500(7, int64(1705+trial))
		p.EdgeFactor = 4
		g := rmat.Generate(p)
		inputs = append(inputs, input{g, randomDecoratedTemplate(rng, g)})
	}
	// A hexagon labelled 0,1,2,0,1,2 passes every local check of the
	// triangle 0-1-2 and holds no triangle: only the cycle walk refutes it.
	hex := graph.NewBuilder(6)
	for v := 0; v < 6; v++ {
		hex.SetLabel(graph.VertexID(v), graph.Label(v%3))
		hex.AddEdge(graph.VertexID(v), graph.VertexID((v+1)%6))
	}
	inputs = append(inputs, input{hex.Build(), pattern.CycleN([]pattern.Label{0, 1, 2})})
	dropsIn := map[string]int{}
	for _, in := range inputs {
		g, tp := in.g, in.tp
		var m Metrics
		s := maxCandidateSet(g, tp, nil, nil, &m)
		assertSlotSymmetry(t, s, "maxCandidateSet")
		seeded, _ := newCandsetPrep(tp).seedState(g, nil)
		dropsIn["maxCandidateSet"] += seeded.NumActiveVertices() - s.NumActiveVertices()

		set, err := prototype.Generate(tp, 1)
		if err != nil {
			t.Fatal(err)
		}
		profs := make([]*localProfile, set.Count())
		ms := make([]*Metrics, set.Count())
		for pi, p := range set.Protos {
			profs[pi], ms[pi] = buildLocalProfile(p.Template), &m
		}
		blk := lccBlock(s, profs, nil, ms)
		for lane := range profs {
			ls, _ := blk.unpack(lane)
			assertSlotSymmetry(t, ls, "lccBlock")
			dropsIn["lccBlock"] += s.NumActiveVertices() - ls.NumActiveVertices()
		}

		omega := initCandidates(s, tp)
		prof := buildLocalProfile(tp)
		before := s.NumActiveVertices()
		lcc(s, omega, prof, nil, &m)
		assertSlotSymmetry(t, s, "lcc")
		dropsIn["lcc"] += before - s.NumActiveVertices()

		for _, w := range constraint.Plan(tp, nil, 0, 0) {
			before = s.NumActiveVertices()
			nlcc(s, omega, tp, w, nil, nil, &m)
			assertSlotSymmetry(t, s, "nlcc")
			dropsIn["nlcc"] += before - s.NumActiveVertices()
		}

		before = s.NumActiveVertices()
		verifyExact(s, omega, tp, nil, &m, kernelOpts{})
		assertSlotSymmetry(t, s, "verifyExact")
		dropsIn["verifyExact"] += before - s.NumActiveVertices()
	}
	for _, kernel := range []string{"maxCandidateSet", "lccBlock", "lcc", "nlcc", "verifyExact"} {
		if dropsIn[kernel] == 0 {
			t.Errorf("no trial made %s drop a vertex: the invariant was never at risk there", kernel)
		}
	}
}

// TestWorkersCancellation exercises cancellation through the M* fixpoint:
// its forked probe must abort the run with the context's error.
func TestWorkersCancellation(t *testing.T) {
	g := rmat.Generate(rmat.Graph500(9, 7))
	tp := randomDecoratedTemplate(rand.New(rand.NewSource(9)), g)
	cfg := DefaultConfig(2)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, g, tp, cfg); err != context.Canceled {
		t.Fatalf("pre-canceled: err=%v", err)
	}

	ctx, cancel = context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := RunContext(ctx, g, tp, cfg); err != context.DeadlineExceeded {
		// A tiny run can legitimately finish before the deadline; only a
		// wrong error value is a failure.
		if err != nil {
			t.Fatalf("deadline: err=%v", err)
		}
	} else if time.Since(start) > 5*time.Second {
		t.Fatalf("cancellation took %v", time.Since(start))
	}
}

// TestTopDownWidthsMatchSequential is the level-parallelism differential of
// the top-down mode: RunTopDownContext at widths {2,3} must find the same
// distance, search the same prototypes and return the same solutions as at
// width 1, and — without work recycling, whose sharing between concurrent
// searches is a race by design — report the same LCC, NLCC and verification
// message counters.
func TestTopDownWidthsMatchSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1705))
	// A 5-cycle with two chords: a level of up to 21 prototypes, enough for
	// the width-1 run to search its first LCC fixpoints bit-sliced.
	chorded := func(g *graph.Graph) *pattern.Template {
		ls := make([]pattern.Label, 5)
		for i := range ls {
			ls[i] = g.Label(graph.VertexID(rng.Intn(g.NumVertices())))
		}
		return pattern.MustNew(ls, []pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 2, J: 3}, {I: 3, J: 4}, {I: 0, J: 4}, {I: 0, J: 2}, {I: 0, J: 3}})
	}
	var blocks int64
	for trial := 0; trial < 6; trial++ {
		g := rmat.Generate(rmat.Params{Scale: 7, EdgeFactor: 4, A: 0.57, B: 0.19, C: 0.19, Seed: int64(trial)})
		tp, k := randomDecoratedTemplate(rng, g), 2
		if trial%2 == 1 {
			tp, k = chorded(g), 3
		}
		cfg := DefaultConfig(k)
		cfg.WorkRecycling = false
		cfg.CountMatches = true
		want, err := RunTopDownContext(context.Background(), g, tp, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		blocks += want.Metrics.LCCBlocks
		for _, width := range []int{2, 3} {
			got, err := RunTopDownContext(context.Background(), g, tp, cfg, width)
			if err != nil {
				t.Fatal(err)
			}
			tag := fmt.Sprintf("trial %d %v width=%d", trial, tp, width)
			if got.FoundDist != want.FoundDist || got.PrototypesSearched != want.PrototypesSearched {
				t.Errorf("%s: found %d after %d prototypes, want %d after %d",
					tag, got.FoundDist, got.PrototypesSearched, want.FoundDist, want.PrototypesSearched)
			}
			if !got.MatchingVertices.Equal(want.MatchingVertices) {
				t.Errorf("%s: matching vertices differ", tag)
			}
			for pi, ws := range want.Solutions {
				gs := got.Solutions[pi]
				if (ws == nil) != (gs == nil) {
					t.Fatalf("%s: proto %d searched in one run only", tag, pi)
				}
				if ws != nil && (!ws.Verts.Equal(gs.Verts) || !ws.Edges.Equal(gs.Edges) || ws.MatchCount != gs.MatchCount) {
					t.Errorf("%s: proto %d solutions differ", tag, pi)
				}
			}
			wm, gm := want.Metrics, got.Metrics
			if gm.LCCMessages != wm.LCCMessages || gm.NLCCMessages != wm.NLCCMessages || gm.VerifyMessages != wm.VerifyMessages {
				t.Errorf("%s: lcc/nlcc/verify messages %d/%d/%d, want %d/%d/%d", tag,
					gm.LCCMessages, gm.NLCCMessages, gm.VerifyMessages, wm.LCCMessages, wm.NLCCMessages, wm.VerifyMessages)
			}
		}
	}
	if blocks == 0 {
		t.Error("no width-1 run searched a bit-sliced LCC block")
	}
}
