package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"approxmatch/internal/datagen"
)

// TestPreCanceledContextReturnsPromptly checks the acceptance bar for the
// context plumbing: a query whose context is already dead must fail with
// the context's error before any graph work starts — well under 100 ms even
// on the RMAT bench graph.
func TestPreCanceledContextReturnsPromptly(t *testing.T) {
	g, tpl := datagen.RMATWithPattern(10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	start := time.Now()
	if _, err := RunContext(ctx, g, tpl, DefaultConfig(2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext err = %v, want context.Canceled", err)
	}
	if _, err := RunParallelContext(ctx, g, tpl, DefaultConfig(2), 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunParallelContext err = %v, want context.Canceled", err)
	}
	if _, err := RunTopDownContext(ctx, g, tpl, DefaultConfig(2), 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunTopDownContext err = %v, want context.Canceled", err)
	}
	if _, err := MatchFlipsContext(ctx, g, tpl, DefaultConfig(0)); !errors.Is(err, context.Canceled) {
		t.Fatalf("MatchFlipsContext err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("pre-canceled entry points took %v, want < 100ms", elapsed)
	}
}

// TestExpiredDeadline checks that an already-expired deadline surfaces as
// context.DeadlineExceeded, distinguishable from explicit cancellation.
func TestExpiredDeadline(t *testing.T) {
	g, tpl := datagen.RMATWithPattern(8)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := RunContext(ctx, g, tpl, DefaultConfig(1)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestMidRunCancellation cancels the context while the pipeline is deep in
// its phase loops and checks that the run aborts instead of completing.
func TestMidRunCancellation(t *testing.T) {
	g, tpl := datagen.RMATWithPattern(15)
	// Calibrate: the uncancelled query must outlast the amortized probes'
	// reaction latency (a few ms) by a healthy margin, or a cancel fired
	// partway can legitimately race query completion.
	t0 := time.Now()
	if _, err := RunContext(context.Background(), g, tpl, DefaultConfig(2)); err != nil {
		t.Fatal(err)
	}
	full := time.Since(t0)
	if full < 15*time.Millisecond {
		t.Skipf("query too fast to cancel mid-run (%v)", full)
	}

	ctx, cancel := context.WithTimeout(context.Background(), full/8)
	defer cancel()
	start := time.Now()
	_, err := RunContext(ctx, g, tpl, DefaultConfig(2))
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v after %v (full run %v), want context.DeadlineExceeded", err, elapsed, full)
	}
	if elapsed > 2*full {
		t.Errorf("canceled run took %v, more than twice the full run %v", elapsed, full)
	}

	// Same mid-run abort through the parallel scheduler's goroutines.
	ctx2, cancel2 := context.WithTimeout(context.Background(), full/8)
	defer cancel2()
	if _, err := RunParallelContext(ctx2, g, tpl, DefaultConfig(2), 4); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("parallel err = %v, want context.DeadlineExceeded", err)
	}
}

// TestContextNeverFiresMatchesRun checks the "results unchanged" half of
// the contract: a live but never-fired context must not perturb the result.
func TestContextNeverFiresMatchesRun(t *testing.T) {
	g, tpl := datagen.RMATWithPattern(8)
	cfg := DefaultConfig(2)
	cfg.CountMatches = true
	want, err := Run(g, tpl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	got, err := RunContext(ctx, g, tpl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Solutions) != len(want.Solutions) {
		t.Fatalf("solutions %d vs %d", len(got.Solutions), len(want.Solutions))
	}
	for pi := range want.Solutions {
		if got.Solutions[pi].MatchCount != want.Solutions[pi].MatchCount {
			t.Errorf("proto %d count %d vs %d", pi, got.Solutions[pi].MatchCount, want.Solutions[pi].MatchCount)
		}
		if !got.Solutions[pi].Verts.Equal(want.Solutions[pi].Verts) {
			t.Errorf("proto %d vertex sets differ", pi)
		}
	}
}

// TestRecoverCancelPassesThroughOtherPanics checks that the abort recovery
// does not swallow unrelated panics.
func TestRecoverCancelPassesThroughOtherPanics(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	var err error
	func() {
		defer RecoverCancel(&err)
		panic("boom")
	}()
}
