package core

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"approxmatch/internal/rmat"
)

// TestWorkerPanicIsolation injects a panic into one prototype search and
// checks the level driver converts it into a *PanicError carrying the
// search's stack at every width — on the calling goroutine (1) and on the
// worker group (2) alike, bottom-up and top-down: the query fails, the
// process survives, and a subsequent clean run on the same inputs is
// unaffected.
func TestWorkerPanicIsolation(t *testing.T) {
	g := rmat.Generate(rmat.Graph500(7, 55))
	tp := randomDecoratedTemplate(rand.New(rand.NewSource(55)), g)
	cfg := DefaultConfig(2)
	want, err := Run(g, tp, cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, width := range []int{1, 2} {
		testHookPrototypeSearch = func(pi int) {
			if pi == 0 {
				panic("injected worker bug")
			}
		}
		res, err := RunParallelContext(context.Background(), g, tp, cfg, width)
		testHookPrototypeSearch = nil
		if err == nil {
			t.Fatalf("width %d: poisoned run succeeded", width)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("width %d: err = %v (%T), want *PanicError", width, err, err)
		}
		if pe.Val != "injected worker bug" {
			t.Fatalf("width %d: PanicError.Val = %v", width, pe.Val)
		}
		if !strings.Contains(string(pe.Stack), "goroutine") {
			t.Fatalf("width %d: PanicError carries no stack", width)
		}
		if res != nil {
			t.Fatalf("width %d: panic must not yield a (possibly torn) result", width)
		}

		clean, err := RunParallelContext(context.Background(), g, tp, cfg, width)
		if err != nil {
			t.Fatalf("width %d: clean rerun failed: %v", width, err)
		}
		assertSameResult(t, want, clean, "post-panic rerun")

		testHookPrototypeSearch = func(int) { panic("injected worker bug") }
		_, err = RunTopDownContext(context.Background(), g, tp, cfg, width)
		testHookPrototypeSearch = nil
		if !errors.As(err, &pe) || pe.Val != "injected worker bug" {
			t.Fatalf("width %d: top-down err = %v (%T), want *PanicError", width, err, err)
		}
	}
}
