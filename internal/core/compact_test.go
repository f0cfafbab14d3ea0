package core

import (
	"context"
	"math/rand"
	"testing"

	"approxmatch/internal/graph"
	"approxmatch/internal/rmat"
)

// forceCompact is a threshold above every possible active fraction, so
// compaction always extracts a view — the adversarial setting of the
// compaction differential tests.
const forceCompact = 1.1

// compactingBelow returns cfg compacting its search states below threshold;
// 0 switches compaction off.
func compactingBelow(cfg Config, threshold float64) Config {
	cfg.compactOverride = threshold
	if threshold == 0 {
		cfg.compactOverride = -1
	}
	return cfg
}

// TestCompactionDifferentialRMAT is the compaction-invisibility property
// test: on seeded R-MAT graphs with randomized templates, compaction off,
// the default threshold, and compaction forced at every
// level must produce bit-identical Rho, Solutions and match counts — and
// identical schedule-sensitive work counters,
// because the monotone remap makes a compacted search step-isomorphic to
// the original one.
func TestCompactionDifferentialRMAT(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 8; trial++ {
		p := rmat.Graph500(7, int64(3000+trial))
		p.EdgeFactor = 4
		g := rmat.Generate(p)
		tp := randomDecoratedTemplate(rng, g)
		cfg := DefaultConfig(1 + trial%2)
		cfg.CountMatches = true
		cfg = compactingBelow(cfg, 0)
		want, err := Run(g, tp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, threshold := range []float64{0.5, forceCompact} {
			ccfg := compactingBelow(cfg, threshold)
			got, err := Run(g, tp, ccfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, want, got, tp.String())
			wantC, gotC := counterVector(&want.Metrics), counterVector(&got.Metrics)
			for i := range wantC {
				if wantC[i] != gotC[i] {
					t.Errorf("%v threshold=%v: counter %d = %d, want %d",
						tp, threshold, i, gotC[i], wantC[i])
				}
			}
			if threshold == forceCompact && got.Metrics.Compactions == 0 {
				t.Errorf("%v: forced compaction never fired", tp)
			}
		}
	}
}

// TestCompactionDifferentialEdgeLabels covers the edge-labeled corner: the
// view must carry per-slot edge labels through the remap.
func TestCompactionDifferentialEdgeLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(2025))
	for trial := 0; trial < 6; trial++ {
		g := randomEdgeLabeledGraph(rng, 40, 120, 3, 2)
		tp := randomEdgeLabeledTemplate(rng, 4, 3, 2)
		cfg := DefaultConfig(trial % 3)
		cfg.CountMatches = true
		want, err := Run(g, tp, compactingBelow(cfg, 0))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(g, tp, compactingBelow(cfg, forceCompact))
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, want, got, tp.String())
	}
}

// TestCompactionDifferentialModes runs the same invisibility check through
// the other pipeline entry points: RunParallelContext, RunTopDownContext and
// MatchFlipsContext.
func TestCompactionDifferentialModes(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	g := randomGraph(rng, 50, 140, 3)
	tp := randomTemplate(rng, 4, 3)

	cfg := DefaultConfig(2)
	cfg.CountMatches = true
	off, on := compactingBelow(cfg, 0), compactingBelow(cfg, forceCompact)

	wantPar, err := RunParallelContext(context.Background(), g, tp, off, 3)
	if err != nil {
		t.Fatal(err)
	}
	gotPar, err := RunParallelContext(context.Background(), g, tp, on, 3)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, wantPar, gotPar, "RunParallel")

	wantTD, err := RunTopDownContext(context.Background(), g, tp, off, 1)
	if err != nil {
		t.Fatal(err)
	}
	gotTD, err := RunTopDownContext(context.Background(), g, tp, on, 1)
	if err != nil {
		t.Fatal(err)
	}
	if wantTD.FoundDist != gotTD.FoundDist {
		t.Fatalf("top-down FoundDist %d vs %d", wantTD.FoundDist, gotTD.FoundDist)
	}
	if !wantTD.MatchingVertices.Equal(gotTD.MatchingVertices) {
		t.Error("top-down MatchingVertices differ")
	}

	wantFl, err := MatchFlipsContext(context.Background(), g, tp, off)
	if err != nil {
		t.Fatal(err)
	}
	gotFl, err := MatchFlipsContext(context.Background(), g, tp, on)
	if err != nil {
		t.Fatal(err)
	}
	if !wantFl.Base.Verts.Equal(gotFl.Base.Verts) || !wantFl.Base.Edges.Equal(gotFl.Base.Edges) {
		t.Error("flips base solution differs")
	}
	if wantFl.TotalMatchCount() != gotFl.TotalMatchCount() {
		t.Errorf("flips counts %d vs %d", wantFl.TotalMatchCount(), gotFl.TotalMatchCount())
	}
	for i := range wantFl.Solutions {
		if !wantFl.Solutions[i].Verts.Equal(gotFl.Solutions[i].Verts) {
			t.Errorf("flip %d vertex bits differ", i)
		}
	}
}

// TestCompactStateMechanics pins the compaction contract: disabled and
// already-compacted states pass through; a fired compaction yields a
// fully-active view state, slot symmetry, and the accounting counters.
func TestCompactStateMechanics(t *testing.T) {
	rng := rand.New(rand.NewSource(2027))
	g := randomGraph(rng, 60, 150, 3)
	s := NewFullState(g)
	// Prune more than half the graph so the 0.5 default would fire too.
	for v := 0; v < 40; v++ {
		s.DeactivateVertex(graph.VertexID(v))
	}
	var m Metrics

	if got := compactState(s, 0, &m, nil); got != s {
		t.Fatal("threshold 0 must be a no-op")
	}
	if m.CompactionChecks != 0 {
		t.Fatal("disabled compaction must not count checks")
	}

	cs := compactState(s, 0.9, &m, nil)
	if cs == s || cs.View() == nil {
		t.Fatal("expected a compacted state")
	}
	if m.CompactionChecks != 1 || m.Compactions != 1 {
		t.Fatalf("checks=%d compactions=%d", m.CompactionChecks, m.Compactions)
	}
	if m.CompactionBytesReclaimed <= 0 {
		t.Errorf("bytes reclaimed = %d, want > 0", m.CompactionBytesReclaimed)
	}
	if m.CompactionFracBefore <= 0 || m.CompactionFracBefore >= 0.9 {
		t.Errorf("frac before = %v, want in (0, 0.9)", m.CompactionFracBefore)
	}
	if m.CompactionFracAfter != 1 {
		t.Errorf("frac after = %v, want 1", m.CompactionFracAfter)
	}
	if cs.NumActiveVertices() != cs.Graph().NumVertices() ||
		cs.NumActiveDirectedEdges() != cs.Graph().NumDirectedEdges() {
		t.Fatal("compacted state must be fully active")
	}
	if cs.NumActiveVertices() != s.NumActiveVertices() ||
		cs.NumActiveDirectedEdges() != s.NumActiveDirectedEdges() {
		t.Fatal("compaction changed the active counts")
	}
	assertSlotSymmetry(t, cs, "compacted")
	if err := cs.Graph().Validate(); err != nil {
		t.Fatalf("view graph invalid: %v", err)
	}

	if again := compactState(cs, forceCompact, &m, nil); again != cs {
		t.Fatal("a view state must not be re-compacted")
	}

	// Above-threshold states pass through but are counted.
	m = Metrics{}
	full := NewFullState(g)
	if got := CompactState(full, &m, nil); got != full {
		t.Fatal("dense state must not compact at 0.5")
	}
	if m.CompactionChecks != 1 || m.Compactions != 0 {
		t.Fatalf("dense: checks=%d compactions=%d", m.CompactionChecks, m.Compactions)
	}
}
