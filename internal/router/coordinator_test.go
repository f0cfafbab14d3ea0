package router

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// startWorker spins up one RankServer on a loopback port with the given
// hello and handler, returning it and its address.
func startWorker(t *testing.T, hello HelloInfo, h QueryHandler) (*RankServer, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rs := NewRankServer(ln, hello, h)
	go rs.Serve() //nolint:errcheck // exits on Close
	t.Cleanup(rs.Close)
	return rs, rs.Addr()
}

func TestCoordinatorRoundTrip(t *testing.T) {
	hello := HelloInfo{Vertices: 10, Edges: 20, Signature: 0xabc}
	echo := func(id int) QueryHandler {
		return func(endpoint byte, body []byte) (int, string, []byte) {
			return 200, "text/plain", []byte(fmt.Sprintf("w%d e%d %s", id, endpoint, body))
		}
	}
	_, a0 := startWorker(t, hello, echo(0))
	_, a1 := startWorker(t, hello, echo(1))
	co, err := DialGroup([]string{a0, a1}, 0xabc, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if co.Hello() != hello {
		t.Fatalf("Hello() = %+v, want %+v", co.Hello(), hello)
	}
	if co.Size() != 2 {
		t.Fatalf("Size() = %d, want 2", co.Size())
	}
	seen := map[string]int{}
	for i := 0; i < 6; i++ {
		status, ct, resp, err := co.Do(context.Background(), EndpointMatch, []byte("q"))
		if err != nil {
			t.Fatal(err)
		}
		if status != 200 || ct != "text/plain" {
			t.Fatalf("status %d ct %q", status, ct)
		}
		if !bytes.HasSuffix(resp, []byte("e1 q")) {
			t.Fatalf("unexpected response %q", resp)
		}
		seen[string(resp[:2])]++
	}
	// Round-robin must spread queries over both workers.
	if seen["w0"] == 0 || seen["w1"] == 0 {
		t.Fatalf("round-robin skipped a worker: %v", seen)
	}
}

func TestCoordinatorSignatureMismatch(t *testing.T) {
	h := func(byte, []byte) (int, string, []byte) { return 200, "", nil }
	_, a0 := startWorker(t, HelloInfo{Signature: 0x111}, h)
	_, a1 := startWorker(t, HelloInfo{Signature: 0x222}, h)

	// The coordinator's own graph disagrees with the worker.
	if _, err := DialGroup([]string{a0}, 0x999, time.Second); err == nil ||
		!strings.Contains(err.Error(), "signature") {
		t.Fatalf("expectSig mismatch not rejected: %v", err)
	}
	// The group itself is split.
	if _, err := DialGroup([]string{a0, a1}, 0, time.Second); err == nil ||
		!strings.Contains(err.Error(), "split") {
		t.Fatalf("split group not rejected: %v", err)
	}
	// Agreement passes.
	co, err := DialGroup([]string{a0}, 0x111, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	co.Close()
}

func TestCoordinatorFailover(t *testing.T) {
	hello := HelloInfo{Signature: 0x7}
	h := func(byte, []byte) (int, string, []byte) { return 200, "", []byte("ok") }
	rs0, a0 := startWorker(t, hello, h)
	_, a1 := startWorker(t, hello, h)
	co, err := DialGroup([]string{a0, a1}, 0x7, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	rs0.Close() // worker 0 dies after the group formed
	// Enough queries that round-robin lands on the dead worker; every one
	// must fail over to the survivor.
	for i := 0; i < 4; i++ {
		status, _, resp, err := co.Do(context.Background(), EndpointExplore, nil)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if status != 200 || string(resp) != "ok" {
			t.Fatalf("query %d: status %d resp %q", i, status, resp)
		}
	}
}

func TestCoordinatorAllWorkersDown(t *testing.T) {
	hello := HelloInfo{Signature: 0x7}
	h := func(byte, []byte) (int, string, []byte) { return 200, "", []byte("ok") }
	rs, a := startWorker(t, hello, h)
	co, err := DialGroup([]string{a}, 0x7, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	rs.Close()
	if _, _, _, err := co.Do(context.Background(), EndpointMatch, nil); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
}

// TestCoordinatorContextNotFailedOver pins the retry policy: a context
// deadline during a query surfaces as the context error without the query
// being retried on another worker — a slow query replayed elsewhere would
// only double the load.
func TestCoordinatorContextNotFailedOver(t *testing.T) {
	hello := HelloInfo{Signature: 0x7}
	var calls atomic.Int64
	slow := func(byte, []byte) (int, string, []byte) {
		calls.Add(1)
		time.Sleep(300 * time.Millisecond)
		return 200, "", []byte("late")
	}
	_, a0 := startWorker(t, hello, slow)
	_, a1 := startWorker(t, hello, slow)
	co, err := DialGroup([]string{a0, a1}, 0x7, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, _, _, err = co.Do(ctx, EndpointMatch, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// Give the in-flight handler time to finish, then check only one
	// worker ever saw the query.
	time.Sleep(400 * time.Millisecond)
	if n := calls.Load(); n != 1 {
		t.Fatalf("query reached %d workers, want 1 (no failover on context expiry)", n)
	}
}

// TestRankServerHostileClient: garbage after the hello must close the
// connection, not wedge or crash the worker; a fresh connection still
// works.
func TestRankServerHostileClient(t *testing.T) {
	hello := HelloInfo{Signature: 0x7}
	_, addr := startWorker(t, hello, func(byte, []byte) (int, string, []byte) {
		return 200, "", []byte("ok")
	})
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Write(bytes.Repeat([]byte{0xff}, 64)) //nolint:errcheck
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1024)
	for {
		if _, err := c.Read(buf); err != nil {
			break // hello then EOF — the server hung up
		}
	}
	co, err := DialGroup([]string{addr}, 0x7, time.Second)
	if err != nil {
		t.Fatalf("worker unusable after hostile client: %v", err)
	}
	defer co.Close()
	if status, _, resp, err := co.Do(context.Background(), EndpointMatch, nil); err != nil || status != 200 || string(resp) != "ok" {
		t.Fatalf("status %d resp %q err %v", status, resp, err)
	}
}
