package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestPanicIsolation poisons one in-flight query with an injected panic and
// checks the blast radius: that query alone gets 500, concurrent queries on
// the same server succeed, the panic counter ticks, and the process keeps
// serving. Run under -race this also proves the isolation path is data-race
// free.
func TestPanicIsolation(t *testing.T) {
	s := NewWithConfig(testGraph(), Config{MaxConcurrent: 4})
	testHookMatch = func(req *MatchRequest, _ int) {
		if req.K == 3 {
			panic("injected query bug")
		}
	}
	defer func() { testHookMatch = nil }()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(k int) (int, string) {
		body, _ := json.Marshal(MatchRequest{Template: triangleTemplate, K: k, Count: true})
		resp, err := http.Post(srv.URL+"/match", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Error(err)
			return 0, ""
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	const healthy = 8
	statuses := make([]int, healthy)
	var wg sync.WaitGroup
	var poisonedStatus int
	var poisonedBody string
	wg.Add(1)
	go func() {
		defer wg.Done()
		poisonedStatus, poisonedBody = post(3)
	}()
	for i := 0; i < healthy; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], _ = post(1)
		}(i)
	}
	wg.Wait()

	if poisonedStatus != http.StatusInternalServerError {
		t.Fatalf("poisoned query status = %d, want 500", poisonedStatus)
	}
	if strings.Contains(poisonedBody, "injected query bug") {
		t.Fatal("panic detail leaked to the client")
	}
	for i, st := range statuses {
		if st != http.StatusOK {
			t.Fatalf("healthy query %d status = %d, want 200", i, st)
		}
	}

	// The process survived; /healthz and /metrics still serve, and the
	// panic was counted.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic: %v status=%v", err, resp)
	}
	resp.Body.Close()
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	prom, _ := io.ReadAll(mresp.Body)
	if !strings.Contains(string(prom), "amatchd_query_panics_total 1") {
		t.Fatalf("metrics do not count the panic:\n%s", prom)
	}

	// The same request shape succeeds once the hook is gone — the failure
	// was query-scoped, not server state.
	testHookMatch = nil
	if st, _ := post(3); st != http.StatusOK {
		t.Fatalf("post-panic k=3 status = %d, want 200", st)
	}
}

// TestMemWatermarkSheds503 drives the admission watermark directly: a server
// whose high watermark is below the live heap must shed queries with 503 and
// count them, and one with a generous watermark must admit them.
func TestMemWatermarkSheds503(t *testing.T) {
	shed := NewWithConfig(testGraph(), Config{MemHighWatermark: 1}) // any live heap exceeds 1 byte
	srv := httptest.NewServer(shed.Handler())
	defer srv.Close()
	body, _ := json.Marshal(MatchRequest{Template: triangleTemplate, K: 1})
	resp := postJSON(t, srv.URL+"/match", string(body))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	open := NewWithConfig(testGraph(), Config{MemHighWatermark: 1 << 50})
	srv2 := httptest.NewServer(open.Handler())
	defer srv2.Close()
	if resp := postJSON(t, srv2.URL+"/match", string(body)); resp.StatusCode != http.StatusOK {
		t.Fatalf("status under generous watermark = %d, want 200", resp.StatusCode)
	}
}

// forEachSchedule runs fn once per kernel schedule the server can pick —
// sequential and level-parallel prototype search (Parallelism) — with the
// width pinned, so what a test asserts about budget charging never depends
// on the width the host's GOMAXPROCS would derive. Each schedule also runs
// with the deprecated Workers field unset (-1) and set (2): it is inert and
// must not change what a query charges.
func forEachSchedule(t *testing.T, cfg Config, fn func(t *testing.T, cfg Config)) {
	for _, workers := range []int{-1, 2} {
		for _, parallelism := range []int{1, 3} {
			cfg.Workers, cfg.Parallelism = workers, parallelism
			t.Run(fmt.Sprintf("workers=%d/parallelism=%d", workers, parallelism), func(t *testing.T) {
				fn(t, cfg)
			})
		}
	}
}

// TestBudgetExhaustedMatchPartial runs a real query under a one-unit work
// budget: /match must answer 200 with the partial flag, no prototype marked
// exact, and the budget/partial counters ticked.
func TestBudgetExhaustedMatchPartial(t *testing.T) {
	forEachSchedule(t, Config{MaxWork: 1}, func(t *testing.T, cfg Config) {
		s := NewWithConfig(testGraph(), cfg)
		srv := httptest.NewServer(s.Handler())
		defer srv.Close()

		body, _ := json.Marshal(MatchRequest{Template: triangleTemplate, K: 1, Count: true})
		resp := postJSON(t, srv.URL+"/match", string(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200", resp.StatusCode)
		}
		var mr MatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
			t.Fatal(err)
		}
		if !mr.Partial {
			t.Fatal("one-unit budget produced a non-partial result")
		}
		for _, p := range mr.Prototypes {
			if p.Exact {
				t.Fatalf("prototype %d marked exact under a one-unit budget", p.Index)
			}
		}

		mresp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer mresp.Body.Close()
		prom, _ := io.ReadAll(mresp.Body)
		for _, want := range []string{
			"amatchd_budget_exhausted_total 1",
			"amatchd_partial_results_total 1",
			`amatchd_queries_total{endpoint="match",outcome="partial"} 1`,
		} {
			if !strings.Contains(string(prom), want) {
				t.Fatalf("metrics missing %q:\n%s", want, prom)
			}
		}
	})
}

// TestBudgetExhaustedExplore504 checks the exploration endpoint, which has no
// partial result to salvage: budget exhaustion surfaces as 504.
func TestBudgetExhaustedExplore504(t *testing.T) {
	forEachSchedule(t, Config{MaxWork: 1}, func(t *testing.T, cfg Config) {
		s := NewWithConfig(testGraph(), cfg)
		srv := httptest.NewServer(s.Handler())
		defer srv.Close()

		body, _ := json.Marshal(MatchRequest{Template: triangleTemplate, K: 1})
		resp := postJSON(t, srv.URL+"/explore", string(body))
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("status = %d, want 504", resp.StatusCode)
		}
	})
}
