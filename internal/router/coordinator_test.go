package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"approxmatch/internal/graph"
)

// workerHandler is a stand-in amatchd worker: GET /signature answers sig,
// and every other route is served by h.
func workerHandler(sig uint64, h http.HandlerFunc) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /signature", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(SignatureReply{Signature: sig}) //nolint:errcheck
	})
	mux.Handle("/", h)
	return mux
}

// startWorker serves a stand-in worker on a loopback port and returns its
// address and the server (Close it to take the worker down).
func startWorker(t *testing.T, sig uint64, h http.HandlerFunc) (string, *httptest.Server) {
	t.Helper()
	ws := httptest.NewServer(workerHandler(sig, h))
	t.Cleanup(ws.Close)
	return ws.Listener.Addr().String(), ws
}

// serveAt is startWorker on a given address, for a worker that comes up
// late or replaces another.
func serveAt(t *testing.T, addr string, sig uint64, h http.HandlerFunc) *httptest.Server {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	ws := httptest.NewUnstartedServer(workerHandler(sig, h))
	ws.Listener.Close()
	ws.Listener = ln
	ws.Start()
	t.Cleanup(ws.Close)
	return ws
}

func reply(body string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, body) } //nolint:errcheck
}

func TestCoordinatorRoundTrip(t *testing.T) {
	echo := func(id int) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			body, _ := io.ReadAll(r.Body)
			if string(body) == "bad" {
				http.Error(w, "bad request", http.StatusBadRequest)
				return
			}
			w.Header().Set("Content-Type", "text/plain")
			fmt.Fprintf(w, "w%d %s %s", id, r.URL.Path, body)
		}
	}
	a0, _ := startWorker(t, 0xabc, echo(0))
	a1, _ := startWorker(t, 0xabc, echo(1))
	co, err := DialGroupWithin([]string{a0, a1}, 0xabc, time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if co.Size() != 2 {
		t.Fatalf("Size() = %d, want 2", co.Size())
	}
	seen := map[string]int{}
	for i := 0; i < 6; i++ {
		status, ct, resp, err := co.Do(context.Background(), "/match", []byte("q"))
		if err != nil {
			t.Fatal(err)
		}
		if status != 200 || ct != "text/plain" {
			t.Fatalf("status %d ct %q", status, ct)
		}
		if !strings.HasSuffix(string(resp), " /match q") {
			t.Fatalf("unexpected response %q", resp)
		}
		seen[string(resp[:2])]++
	}
	// Round-robin must spread queries over both workers.
	if seen["w0"] == 0 || seen["w1"] == 0 {
		t.Fatalf("round-robin skipped a worker: %v", seen)
	}
	// A worker's error status is its answer, relayed as-is — failover is
	// for transport errors only.
	status, ct, resp, err := co.Do(context.Background(), "/explore", []byte("bad"))
	if err != nil || status != http.StatusBadRequest || !strings.HasPrefix(ct, "text/plain") || string(resp) != "bad request\n" {
		t.Fatalf("status %d ct %q resp %q err %v", status, ct, resp, err)
	}
}

func TestCoordinatorSignatureMismatch(t *testing.T) {
	a0, _ := startWorker(t, 0x111, reply(""))
	a1, _ := startWorker(t, 0x222, reply(""))

	// The coordinator's own graph disagrees with the worker.
	if _, err := DialGroupWithin([]string{a0}, 0x999, time.Second, 0); err == nil ||
		!strings.Contains(err.Error(), "signature") {
		t.Fatalf("expectSig mismatch not rejected: %v", err)
	}
	// The group itself is split.
	if _, err := DialGroupWithin([]string{a0, a1}, 0, time.Second, 0); err == nil ||
		!strings.Contains(err.Error(), "split") {
		t.Fatalf("split group not rejected: %v", err)
	}
	// Agreement passes.
	co, err := DialGroupWithin([]string{a0}, 0x111, time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	co.Close()
}

func TestCoordinatorFailover(t *testing.T) {
	a0, ws0 := startWorker(t, 0x7, reply("ok"))
	a1, _ := startWorker(t, 0x7, reply("ok"))
	co, err := DialGroupWithin([]string{a0, a1}, 0x7, time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	ws0.Close() // worker 0 dies after the group formed
	// Enough queries that round-robin lands on the dead worker; every one
	// must fail over to the survivor.
	for i := 0; i < 4; i++ {
		status, _, resp, err := co.Do(context.Background(), "/explore", nil)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if status != 200 || string(resp) != "ok" {
			t.Fatalf("query %d: status %d resp %q", i, status, resp)
		}
	}
}

func TestCoordinatorAllWorkersDown(t *testing.T) {
	a, ws := startWorker(t, 0x7, reply("ok"))
	co, err := DialGroupWithin([]string{a}, 0x7, time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	ws.Close()
	if _, _, _, err := co.Do(context.Background(), "/match", nil); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
}

// TestCoordinatorConcurrent: queries from many goroutines share the pool
// and the round-robin counter; every one must be answered.
func TestCoordinatorConcurrent(t *testing.T) {
	a0, _ := startWorker(t, 0x7, reply("ok"))
	a1, _ := startWorker(t, 0x7, reply("ok"))
	co, err := DialGroupWithin([]string{a0, a1}, 0x7, 5*time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if status, _, resp, err := co.Do(context.Background(), "/match", []byte("q")); err != nil || status != 200 || string(resp) != "ok" {
					t.Errorf("status %d resp %q err %v", status, resp, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCoordinatorReprobesReplacedWorker: a worker replaced at the same
// address by one serving a different graph must never be routed to, even
// though the coordinator held pooled connections to the old process. A
// query fails over to the rest of the group, and with no one left fails
// with ErrNoWorkers.
func TestCoordinatorReprobesReplacedWorker(t *testing.T) {
	a0, ws0 := startWorker(t, 0x7, reply("w0"))
	a1, ws1 := startWorker(t, 0x7, reply("w1"))
	co, err := DialGroupWithin([]string{a0, a1}, 0x7, time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	for i := 0; i < 2; i++ { // one pooled connection to each worker
		if _, _, _, err := co.Do(context.Background(), "/match", nil); err != nil {
			t.Fatal(err)
		}
	}
	ws0.Close()
	var imposterQueries atomic.Int64
	serveAt(t, a0, 0x8, func(w http.ResponseWriter, r *http.Request) {
		imposterQueries.Add(1)
		io.WriteString(w, "imposter") //nolint:errcheck
	})
	for i := 0; i < 4; i++ {
		_, _, resp, err := co.Do(context.Background(), "/match", nil)
		if err != nil || string(resp) != "w1" {
			t.Fatalf("query %d: resp %q err %v, want w1's answer", i, resp, err)
		}
	}
	ws1.Close()
	if _, _, _, err := co.Do(context.Background(), "/match", nil); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
	if n := imposterQueries.Load(); n != 0 {
		t.Fatalf("the worker on a different graph answered %d queries", n)
	}
}

// TestCoordinatorContextNotFailedOver pins the retry policy: a context
// deadline during a query surfaces as the context error without the query
// being retried on another worker — a slow query replayed elsewhere would
// only double the load.
func TestCoordinatorContextNotFailedOver(t *testing.T) {
	var calls atomic.Int64
	// The handler outlasts the query: it answers only once the coordinator
	// has hung up, so the deadline fires first however slow the host is.
	slow := func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
		io.WriteString(w, "late") //nolint:errcheck
	}
	a0, _ := startWorker(t, 0x7, slow)
	a1, _ := startWorker(t, 0x7, slow)
	co, err := DialGroupWithin([]string{a0, a1}, 0x7, 5*time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, _, _, err = co.Do(ctx, "/match", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// Give a failed-over request time to reach its handler, then check only
	// one worker ever saw the query.
	time.Sleep(400 * time.Millisecond)
	if n := calls.Load(); n != 1 {
		t.Fatalf("query reached %d workers, want 1 (no failover on context expiry)", n)
	}
}

func randomGraph(rng *rand.Rand, n, m, labels int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetLabel(graph.VertexID(v), graph.Label(rng.Intn(labels)))
	}
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(graph.VertexID(u), graph.VertexID(v))
		}
	}
	return b.Build()
}

func TestGraphSignature(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 30, 90, 3)
	if GraphSignature(g) != GraphSignature(g) {
		t.Fatal("signature is not deterministic")
	}
	// Any structural difference — one more edge, a relabeling — must move
	// the signature: it is what stops a coordinator joining mismatched
	// workers.
	g2 := randomGraph(rand.New(rand.NewSource(9)), 30, 91, 3)
	if GraphSignature(g) == GraphSignature(g2) {
		t.Fatal("different edge sets share a signature")
	}
	rel := graph.RelabelByDegree(g)
	if GraphSignature(g) == GraphSignature(rel) {
		t.Fatal("degree relabeling did not change the signature")
	}
}
