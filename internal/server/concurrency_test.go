package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"approxmatch/internal/core"
	"approxmatch/internal/datagen"
	"approxmatch/internal/pattern"
)

// templateText serializes a template back into the wire format the server
// parses, so tests can query with datagen-planted patterns.
func templateText(t *testing.T, tpl *pattern.Template) string {
	t.Helper()
	var buf bytes.Buffer
	if err := pattern.Write(&buf, tpl); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestOverloadSheds503 fills the scheduler and checks that the next request
// is rejected immediately with 503 + Retry-After instead of queuing, and
// that capacity returning makes the same request succeed.
func TestOverloadSheds503(t *testing.T) {
	s := NewWithConfig(testGraph(), Config{MaxConcurrent: 1, QueueDepth: -1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	release, _, err := s.sched.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(MatchRequest{Template: triangleTemplate, K: 1})
	resp := postJSON(t, srv.URL+"/match", string(body))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After header")
	}

	release()
	resp = postJSON(t, srv.URL+"/match", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status after release = %d, want 200", resp.StatusCode)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	prom, _ := io.ReadAll(mresp.Body)
	if !strings.Contains(string(prom), `amatchd_queries_total{endpoint="match",outcome="overload"} 1`) {
		t.Errorf("overload not counted in metrics:\n%s", prom)
	}
}

// TestCanceledWhileQueued admits a request behind a full slot set, cancels
// its context while it waits, and checks the scheduler fully drains (the
// queue token is returned, no slot leaks).
func TestCanceledWhileQueued(t *testing.T) {
	s := NewWithConfig(testGraph(), Config{MaxConcurrent: 1, QueueDepth: 1})
	release, _, err := s.sched.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(MatchRequest{Template: triangleTemplate, K: 1})
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("POST", "/match", strings.NewReader(string(body))).WithContext(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(httptest.NewRecorder(), req)
	}()

	// Wait until the request is parked in the queue, then yank its context.
	deadline := time.Now().Add(2 * time.Second)
	for s.sched.waiting() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("handler did not return after cancellation while queued")
	}
	if s.sched.waiting() != 0 {
		t.Errorf("queue not drained: waiting = %d", s.sched.waiting())
	}
	release()
	if s.sched.inFlight() != 0 {
		t.Errorf("slot leaked: inFlight = %d", s.sched.inFlight())
	}
}

// TestSchedulerAdmissionAfterQueuedCancels is the admission-token regression
// test: a request canceled while queued must return its queue token. The
// cancel loop runs far past the queue capacity — if a token leaked per
// cancel, acquire would start failing with errOverloaded within three
// iterations, and the final fresh request would be shut out.
func TestSchedulerAdmissionAfterQueuedCancels(t *testing.T) {
	s := newScheduler(1, 2, 0, 1)
	hold, _, err := s.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 25; i++ {
		if _, _, err := s.acquire(canceled); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel %d: err = %v, want context.Canceled (queue token leak)", i, err)
		}
	}
	if w := s.waiting(); w != 0 {
		t.Fatalf("waiting = %d after canceled acquires, want 0", w)
	}

	hold()
	ctx, cancelFresh := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancelFresh()
	release, _, err := s.acquire(ctx)
	if err != nil {
		t.Fatalf("fresh acquire after cancels: %v", err)
	}
	release()
	if s.inFlight() != 0 || s.waiting() != 0 {
		t.Errorf("scheduler not drained: inFlight=%d waiting=%d", s.inFlight(), s.waiting())
	}
}

// TestQueryTimeoutMidRun runs a real query on the RMAT bench graph under a
// timeout far below its runtime and checks the slow-query watchdog downgrades
// it to a partial result (200, partial flag set) instead of letting the
// pipeline finish.
func TestQueryTimeoutMidRun(t *testing.T) {
	g, tpl := datagen.RMATWithPattern(13)
	s := NewWithConfig(g, Config{QueryTimeout: 2 * time.Millisecond})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body, _ := json.Marshal(MatchRequest{Template: templateText(t, tpl), K: 2, Count: true})
	start := time.Now()
	resp := postJSON(t, srv.URL+"/match", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d after %v, want 200 (partial downgrade)", resp.StatusCode, time.Since(start))
	}
	var mr MatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !mr.Partial {
		t.Fatal("over-deadline query returned a non-partial result")
	}
	for _, p := range mr.Prototypes {
		if p.Exact {
			t.Logf("level %d completed before the wall budget fired", p.Dist)
		}
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("timed-out query held the request %v", elapsed)
	}
}

// TestQueryTimeoutHardKill disables the watchdog downgrade (PartialGrace<0)
// and checks the pre-governance behavior is preserved: the context deadline
// fires at QueryTimeout and the query is aborted with 504. The hook holds the
// query for ten deadlines before the pipeline starts, so the outcome never
// depends on how fast the pipeline runs.
func TestQueryTimeoutHardKill(t *testing.T) {
	g, tpl := datagen.RMATWithPattern(13)
	s := NewWithConfig(g, Config{QueryTimeout: 2 * time.Millisecond, PartialGrace: -1})
	testHookMatch = func(*MatchRequest, int) { time.Sleep(20 * time.Millisecond) }
	defer func() { testHookMatch = nil }()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body, _ := json.Marshal(MatchRequest{Template: templateText(t, tpl), K: 2, Count: true})
	start := time.Now()
	resp := postJSON(t, srv.URL+"/match", string(body))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d after %v, want 504", resp.StatusCode, time.Since(start))
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("timed-out query held the request %v", elapsed)
	}
}

// TestBodyLimit413 checks the request body cap: an oversized body is
// rejected with 413 before any parsing or graph work.
func TestBodyLimit413(t *testing.T) {
	s := NewWithConfig(testGraph(), Config{MaxBodyBytes: 64})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	big, _ := json.Marshal(MatchRequest{Template: strings.Repeat("v 0 1\n", 100), K: 1})
	resp := postJSON(t, srv.URL+"/match", string(big))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

// TestVectorsNeverNull checks the wire contract: prototypes and vectors are
// always a JSON array/object, never null, even when vectors were not
// requested.
func TestVectorsNeverNull(t *testing.T) {
	srv := newTestServer(t)
	body, _ := json.Marshal(MatchRequest{Template: triangleTemplate, K: 1})
	resp := postJSON(t, srv.URL+"/match", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	raw, _ := io.ReadAll(resp.Body)
	if strings.Contains(string(raw), "null") {
		t.Errorf("response contains null: %s", raw)
	}
	if !strings.Contains(string(raw), `"vectors":{}`) {
		t.Errorf("vectors not an empty object: %s", raw)
	}
}

// TestConcurrentMatchMatchesSerial hammers /match from many goroutines and
// checks every concurrent response equals the serial core.Run result —
// the scheduler and shared-graph access must not perturb answers. Run under
// -race this also exercises the server's concurrency safety.
func TestConcurrentMatchMatchesSerial(t *testing.T) {
	g, tpl := datagen.RMATWithPattern(10)
	cfg := core.DefaultConfig(2)
	cfg.CountMatches = true
	want, err := core.Run(g, tpl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	req := &MatchRequest{Template: templateText(t, tpl), K: 2, Count: true, Vectors: true}
	wantResp := buildMatchResponse(want, req, 0)

	s := NewWithConfig(g, Config{MaxConcurrent: 4, QueueDepth: 64})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	body, _ := json.Marshal(req)

	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	results := make([]MatchResponse, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/match", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				raw, _ := io.ReadAll(resp.Body)
				t.Errorf("client %d: status %d: %s", i, resp.StatusCode, raw)
				return
			}
			if err := json.NewDecoder(resp.Body).Decode(&results[i]); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := range results {
		results[i].ElapsedMS = wantResp.ElapsedMS
		if !reflect.DeepEqual(results[i], wantResp) {
			t.Errorf("client %d response differs from serial result", i)
		}
	}
}

// TestAdmissionWidth checks how admission sizes a query's prototype
// parallelism. By default a query admitted alone runs on every core, and one
// admitted while another is in flight gets the cores left idle — none here,
// so width 1. An explicit Config.Parallelism is every query's width. Every
// body equals the serial core.Run result.
func TestAdmissionWidth(t *testing.T) {
	g, tpl := datagen.RMATWithPattern(10)
	cfg := core.DefaultConfig(2)
	cfg.CountMatches = true
	want, err := core.Run(g, tpl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	req := &MatchRequest{Template: templateText(t, tpl), K: 2, Count: true, Vectors: true}
	wantResp := buildMatchResponse(want, req, 0)
	body, _ := json.Marshal(req)

	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		name        string
		parallelism int
		// lone is the width of a query admitted alone, loaded that of one
		// admitted beside it.
		lone, loaded int
	}{
		{"default", 0, procs, 1},
		{"fixed", 3, 3, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewWithConfig(g, Config{MaxConcurrent: 2, Parallelism: tc.parallelism})
			srv := httptest.NewServer(s.Handler())
			defer srv.Close()
			match := func() {
				resp, err := http.Post(srv.URL+"/match", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				var got MatchResponse
				if resp.StatusCode != http.StatusOK {
					raw, _ := io.ReadAll(resp.Body)
					t.Errorf("status %d: %s", resp.StatusCode, raw)
					return
				}
				if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
					t.Error(err)
					return
				}
				got.ElapsedMS = wantResp.ElapsedMS
				if !reflect.DeepEqual(got, wantResp) {
					t.Error("response differs from the serial result")
				}
			}

			// The second query parks in the hook, so the third is admitted
			// while it is in flight.
			var mu sync.Mutex
			var widths []int
			parked, unpark := make(chan struct{}), make(chan struct{})
			testHookMatch = func(_ *MatchRequest, width int) {
				mu.Lock()
				widths = append(widths, width)
				n := len(widths)
				mu.Unlock()
				if n == 2 {
					close(parked)
					<-unpark
				}
			}
			defer func() { testHookMatch = nil }()

			match()
			done := make(chan struct{})
			go func() {
				defer close(done)
				match()
			}()
			<-parked
			match()
			close(unpark)
			<-done

			if wantW := []int{tc.lone, tc.lone, tc.loaded}; !reflect.DeepEqual(widths, wantW) {
				t.Errorf("admitted widths %v, want %v (alone, alone, beside it)", widths, wantW)
			}
			s.sched.mu.Lock()
			defer s.sched.mu.Unlock()
			if s.sched.held != 0 {
				t.Errorf("%d cores still held after every query finished", s.sched.held)
			}
		})
	}
}

// benchmarkMatch measures end-to-end /match throughput on the RMAT bench
// graph under the given scheduler configuration.
func benchmarkMatch(b *testing.B, cfg Config, concurrent bool) {
	g, tpl := datagen.RMATWithPattern(10)
	var buf bytes.Buffer
	if err := pattern.Write(&buf, tpl); err != nil {
		b.Fatal(err)
	}
	body, _ := json.Marshal(MatchRequest{Template: buf.String(), K: 1, Count: true})
	srv := httptest.NewServer(NewWithConfig(g, cfg).Handler())
	defer srv.Close()

	post := func() error {
		resp, err := http.Post(srv.URL+"/match", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}
	if err := post(); err != nil { // warm up, fail fast on misconfig
		b.Fatal(err)
	}
	b.ResetTimer()
	if concurrent {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := post(); err != nil {
					b.Error(err)
					return
				}
			}
		})
	} else {
		for i := 0; i < b.N; i++ {
			if err := post(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMatchSerial is the old serving model: one query at a time.
func BenchmarkMatchSerial(b *testing.B) {
	benchmarkMatch(b, Config{MaxConcurrent: 1, Parallelism: 2}, false)
}

// BenchmarkMatchConcurrent is the bounded scheduler at full width; compare
// ns/op against BenchmarkMatchSerial for the concurrency speedup.
func BenchmarkMatchConcurrent(b *testing.B) {
	n := runtime.GOMAXPROCS(0)
	benchmarkMatch(b, Config{MaxConcurrent: n, Parallelism: 2, QueueDepth: 4 * n}, true)
}
