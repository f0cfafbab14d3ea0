package router

import (
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// reservePort grabs a loopback port and releases it, returning the
// address so a test can start a server there *later*.
func reservePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestDialGroupWithinLateWorker is the startup-resilience regression
// test: the coordinator begins dialing before one of its workers is
// listening. With a retry budget, DialGroupWithin must keep retrying the
// refused dial (capped backoff + jitter) and succeed once the straggler
// comes up — amatchd and its ranks no longer need a launch-order dance.
func TestDialGroupWithinLateWorker(t *testing.T) {
	early, _ := startWorker(t, 0xabc, reply("ok"))
	lateAddr := reservePort(t)

	// Bring the late worker up well inside the budget but long after the
	// first dial attempt has failed.
	late := &http.Server{Handler: workerHandler(0xabc, reply("ok"))}
	t.Cleanup(func() { late.Close() })
	go func() {
		time.Sleep(300 * time.Millisecond)
		ln, err := net.Listen("tcp", lateAddr)
		if err != nil {
			return // the test will fail on the dial side with a clear error
		}
		late.Serve(ln) //nolint:errcheck // returns on Close
	}()

	start := time.Now()
	co, err := DialGroupWithin([]string{early, lateAddr}, 0xabc, time.Second, 10*time.Second)
	if err != nil {
		t.Fatalf("late worker never joined: %v", err)
	}
	defer co.Close()
	if co.Size() != 2 {
		t.Fatalf("Size() = %d, want 2", co.Size())
	}
	if e := time.Since(start); e < 250*time.Millisecond {
		t.Fatalf("dial succeeded in %v — the late worker cannot have been up yet", e)
	}
}

// TestDialGroupWithinBudgetExhausted: a worker that never appears fails
// the dial once the budget runs out, not sooner (retries happened) and
// not much later (the budget bounds the wait).
func TestDialGroupWithinBudgetExhausted(t *testing.T) {
	dead := reservePort(t)
	start := time.Now()
	_, err := DialGroupWithin([]string{dead}, 0, 200*time.Millisecond, 700*time.Millisecond)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("dial to a dead address succeeded")
	}
	if elapsed < 500*time.Millisecond {
		t.Fatalf("gave up after %v — budget not honored (no retries?)", elapsed)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("took %v — budget overshot", elapsed)
	}
}

// TestDialGroupWithinMismatchFailsFast: retrying cannot fix a signature
// mismatch — the worker is serving the wrong graph — so DialGroupWithin
// must fail immediately instead of burning the whole budget.
func TestDialGroupWithinMismatchFailsFast(t *testing.T) {
	addr, _ := startWorker(t, 0x111, reply(""))
	start := time.Now()
	_, err := DialGroupWithin([]string{addr}, 0x999, time.Second, 30*time.Second)
	if err == nil || !strings.Contains(err.Error(), "signature") {
		t.Fatalf("mismatch not rejected: %v", err)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("mismatch burned %v of budget, want fail-fast", e)
	}
}
