package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// newIngestServer builds a server with /ingest enabled over testGraph (two
// label-1/2/3 triangles, the second missing its closing edge 3-5).
func newIngestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.EnableIngest = true
	s := NewWithConfig(testGraph(), cfg)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return s, srv
}

func getStats(t *testing.T, url string) StatsResponse {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func matchBaseCount(t *testing.T, url string) int64 {
	t.Helper()
	body, _ := json.Marshal(MatchRequest{Template: triangleTemplate, K: 0, Count: true})
	resp := postJSON(t, url+"/match", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("match status %d", resp.StatusCode)
	}
	var out MatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Prototypes[0].MatchCount == nil {
		t.Fatal("no match count")
	}
	return *out.Prototypes[0].MatchCount
}

// TestIngestEndpoint applies a live batch and checks the epoch swap is
// visible everywhere: the response accounting, /stats, and query results on
// the new epoch.
func TestIngestEndpoint(t *testing.T) {
	_, srv := newIngestServer(t, Config{})

	if got := matchBaseCount(t, srv.URL); got != 1 {
		t.Fatalf("pre-ingest base count = %d, want 1", got)
	}
	before := getStats(t, srv.URL)
	if before.Epoch != 0 || before.Edges != 5 {
		t.Fatalf("pre-ingest stats = %+v", before)
	}

	// Close the second triangle (insert 3-5) and perturb elsewhere: delete
	// 0-2 (opening the first triangle) and put it back in a later batch.
	resp := postJSON(t, srv.URL+"/ingest", `{"insert":[[3,5]],"delete":[[0,2]],"relabel":[[0,1]]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	var out IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Epoch != 1 || out.Inserted != 1 || out.Deleted != 1 || out.Relabeled != 1 {
		t.Fatalf("ingest response = %+v", out)
	}
	// Changed vertices: {3,5} ∪ {0,2} ∪ {0} = {0,2,3,5}.
	if out.ChangedVertices != 4 {
		t.Errorf("changed vertices = %d, want 4", out.ChangedVertices)
	}
	if out.Edges != 5 || out.Vertices != 6 {
		t.Errorf("new graph %d vertices / %d edges, want 6/5", out.Vertices, out.Edges)
	}

	after := getStats(t, srv.URL)
	if after.Epoch != 1 || after.Edges != 5 {
		t.Errorf("post-ingest stats = %+v", after)
	}
	// Triangle 0-1-2 is open and relabeled; triangle 3-4-5 is closed now.
	if got := matchBaseCount(t, srv.URL); got != 1 {
		t.Errorf("post-ingest base count = %d, want 1", got)
	}

	resp = postJSON(t, srv.URL+"/ingest", `{"insert":[[0,2]],"relabel":[[0,1]]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second ingest status %d", resp.StatusCode)
	}
	if got := matchBaseCount(t, srv.URL); got != 2 {
		t.Errorf("final base count = %d, want 2 (both triangles)", got)
	}
	if ep := getStats(t, srv.URL).Epoch; ep != 2 {
		t.Errorf("final epoch = %d, want 2", ep)
	}

	prom := scrapeMetrics(t, srv.URL)
	for _, want := range []string{
		"amatchd_ingest_batches_total 2",
		`amatchd_ingest_operations_total{kind="insert"} 2`,
		`amatchd_ingest_operations_total{kind="delete"} 1`,
		`amatchd_ingest_operations_total{kind="relabel"} 2`,
		"amatchd_graph_epoch 2",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestIngestRejection: malformed and semantically invalid batches are
// rejected all-or-nothing — proper status codes, no epoch advance, no graph
// change.
func TestIngestRejection(t *testing.T) {
	_, srv := newIngestServer(t, Config{})

	cases := []struct {
		name, body string
		status     int
	}{
		{"bad json", `{"insert":`, http.StatusBadRequest},
		{"short row", `{"insert":[[1]]}`, http.StatusBadRequest},
		{"long row", `{"delete":[[0,1,2]]}`, http.StatusBadRequest},
		{"negative id", `{"insert":[[-1,2]]}`, http.StatusBadRequest},
		{"overflow id", `{"insert":[[4294967296,2]]}`, http.StatusBadRequest},
		{"delete absent", `{"delete":[[0,3]]}`, http.StatusUnprocessableEntity},
		{"insert present", `{"insert":[[0,1]]}`, http.StatusUnprocessableEntity},
		{"self loop", `{"insert":[[2,2]]}`, http.StatusUnprocessableEntity},
		{"out of range", `{"insert":[[0,99]]}`, http.StatusUnprocessableEntity},
		{"insert and delete", `{"insert":[[3,5]],"delete":[[3,5]]}`, http.StatusUnprocessableEntity},
		{"edge label on unlabeled graph", `{"insert":[[3,5,7]]}`, http.StatusUnprocessableEntity},
		{"conflicting relabels", `{"relabel":[[0,1],[0,2]]}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		resp := postJSON(t, srv.URL+"/ingest", tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
	if st := getStats(t, srv.URL); st.Epoch != 0 || st.Edges != 5 {
		t.Errorf("rejected batches moved the graph: %+v", st)
	}
	prom := scrapeMetrics(t, srv.URL)
	if !strings.Contains(prom, fmt.Sprintf("amatchd_ingest_rejected_total %d", len(cases))) {
		t.Errorf("rejected counter wrong:\n%s", prom)
	}
	if !strings.Contains(prom, "amatchd_ingest_batches_total 0") {
		t.Error("applied counter moved on rejections")
	}
}

// TestIngestDisabledByDefault: without the opt-in, /ingest does not exist.
func TestIngestDisabledByDefault(t *testing.T) {
	srv := newTestServer(t)
	resp := postJSON(t, srv.URL+"/ingest", `{"insert":[[3,5]]}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404 on a default server", resp.StatusCode)
	}
}

// TestIngestBodyCap: batches beyond IngestMaxBodyBytes get 413.
func TestIngestBodyCap(t *testing.T) {
	_, srv := newIngestServer(t, Config{IngestMaxBodyBytes: 64})
	big := `{"insert":[` + strings.Repeat("[3,5],", 100) + `[3,5]]}`
	resp := postJSON(t, srv.URL+"/ingest", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

// TestIngestInvalidatesResultCache: a cached /match body must not survive an
// ingest that changes its answer — the epoch in the cache key versions it
// out.
func TestIngestInvalidatesResultCache(t *testing.T) {
	_, srv := newIngestServer(t, Config{ResultCacheBytes: 1 << 20})

	if got := matchBaseCount(t, srv.URL); got != 1 {
		t.Fatalf("cold count = %d, want 1", got)
	}
	// Warm hit on epoch 0.
	if got := matchBaseCount(t, srv.URL); got != 1 {
		t.Fatalf("warm count = %d, want 1", got)
	}
	resp := postJSON(t, srv.URL+"/ingest", `{"insert":[[3,5]]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	if got := matchBaseCount(t, srv.URL); got != 2 {
		t.Errorf("post-ingest count = %d, want 2 (stale cache body served?)", got)
	}
}

// TestIngestWhileQuerying is the ingest/query race test (runs under -race in
// make check): readers hammer /match and /stats while a writer applies an
// alternating insert/delete batch stream. Every query must succeed against
// whichever epoch it pinned — the base-triangle count is 1 or 2 depending on
// whether the 3-5 edge existed in that epoch, never anything else — and the
// final epoch must count every applied batch.
func TestIngestWhileQuerying(t *testing.T) {
	const batches = 24
	_, srv := newIngestServer(t, Config{ResultCacheBytes: 1 << 20, SharedNLCC: true})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	report := func(format string, args ...any) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(MatchRequest{Template: triangleTemplate, K: 1, Count: true})
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(srv.URL+"/match", "application/json", strings.NewReader(string(body)))
				if err != nil {
					report("match: %v", err)
					return
				}
				var out MatchResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || err != nil {
					report("match: status %d, err %v", resp.StatusCode, err)
					return
				}
				if c := *out.Prototypes[0].MatchCount; c != 1 && c != 2 {
					report("match: base count %d, want 1 or 2", c)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if st := getStats(t, srv.URL); st.Vertices != 6 {
				report("stats: %+v", st)
				return
			}
		}
	}()

	for i := 0; i < batches; i++ {
		body := `{"insert":[[3,5]]}`
		if i%2 == 1 {
			body = `{"delete":[[3,5]]}`
		}
		resp := postJSON(t, srv.URL+"/ingest", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: status %d", i, resp.StatusCode)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if ep := getStats(t, srv.URL).Epoch; ep != batches {
		t.Errorf("final epoch = %d, want %d", ep, batches)
	}
}

// TestRetryAfterDerived: the 503 Retry-After hint must be a positive integer
// derived from load, bounded to [1, 60] — never the old hardcoded constant
// regardless of queue shape or timeout config.
func TestRetryAfterDerived(t *testing.T) {
	for _, cfg := range []Config{
		{MaxConcurrent: 1, QueueDepth: -1},
		{MaxConcurrent: 1, QueueDepth: -1, QueryTimeout: 30 * 1e9},
		{MaxConcurrent: 2, QueueDepth: -1, QueryTimeout: 500 * 1e9},
	} {
		s := NewWithConfig(testGraph(), cfg)
		srv := httptest.NewServer(s.Handler())
		var releases []func()
		for i := 0; i < s.cfg.MaxConcurrent; i++ {
			release, _, err := s.sched.acquire(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			releases = append(releases, release)
		}
		body, _ := json.Marshal(MatchRequest{Template: triangleTemplate, K: 1})
		resp := postJSON(t, srv.URL+"/match", string(body))
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status = %d, want 503", resp.StatusCode)
		}
		ra := resp.Header.Get("Retry-After")
		secs, err := strconv.Atoi(ra)
		if err != nil {
			t.Fatalf("Retry-After %q is not an integer: %v", ra, err)
		}
		if secs < 1 || secs > 60 {
			t.Errorf("Retry-After = %d, want within [1, 60]", secs)
		}
		if cfg.QueryTimeout == 500*1e9 && secs != 60 {
			t.Errorf("saturated 500s-per-query server: Retry-After = %d, want clamped to 60", secs)
		}
		if cfg.QueryTimeout == 30*1e9 && secs <= 1 {
			t.Errorf("30s-per-query backlog: Retry-After = %d, want > 1", secs)
		}
		for _, release := range releases {
			release()
		}
		srv.Close()
	}
}
