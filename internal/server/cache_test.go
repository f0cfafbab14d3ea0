package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"approxmatch/internal/datagen"
	"approxmatch/internal/pattern"
)

// isoText returns a random isomorphic resubmission of a template text:
// vertices renumbered by a random permutation, edges shuffled and endpoints
// flipped — everything a client could do while asking "the same" question.
func isoText(t *testing.T, text string, rng *rand.Rand) string {
	t.Helper()
	tpl, err := pattern.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	n := tpl.NumVertices()
	perm := rng.Perm(n)
	labels := make([]pattern.Label, n)
	for q := 0; q < n; q++ {
		labels[perm[q]] = tpl.Label(q)
	}
	type rec struct {
		e    pattern.Edge
		l    pattern.Label
		mand bool
	}
	recs := make([]rec, tpl.NumEdges())
	for i, e := range tpl.Edges() {
		a, b := perm[e.I], perm[e.J]
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		recs[i] = rec{pattern.Edge{I: a, J: b}, tpl.EdgeLabel(i), tpl.Mandatory(i)}
	}
	rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	edges := make([]pattern.Edge, len(recs))
	mand := make([]bool, len(recs))
	var elabels []pattern.Label
	if tpl.HasEdgeLabels() {
		elabels = make([]pattern.Label, len(recs))
	}
	for i, r := range recs {
		edges[i] = r.e
		mand[i] = r.mand
		if elabels != nil {
			elabels[i] = r.l
		}
	}
	permuted, err := pattern.NewEdgeLabeled(labels, edges, elabels, mand)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pattern.Write(&buf, permuted); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// postMatch posts a /match request and returns the status and raw body
// bytes, because the cache guarantees are stated in terms of bytes.
func postMatch(t *testing.T, url string, req MatchRequest) (int, []byte) {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/match", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// decodeNormalized parses a /match body and zeroes the wall-clock field, the
// only part of the contract allowed to differ between two cold computations
// of the same query.
func decodeNormalized(t *testing.T, body []byte) MatchResponse {
	t.Helper()
	var m MatchResponse
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("bad body %q: %v", body, err)
	}
	m.ElapsedMS = 0
	return m
}

func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestResultCacheIsomorphicWarmCold is the warm/cold differential: after one
// cold run, every isomorphic resubmission — random renumberings, edge
// shuffles, endpoint flips — must be served byte-identical to the cold body.
func TestResultCacheIsomorphicWarmCold(t *testing.T) {
	g, tpl := datagen.RMATWithPattern(10)
	base := templateText(t, tpl)
	req := func(text string) MatchRequest {
		return MatchRequest{Template: text, K: 2, Count: true, Vectors: true}
	}

	s := NewWithConfig(g, Config{ResultCacheBytes: 1 << 20, SharedNLCC: true})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	status, cold := postMatch(t, srv.URL, req(base))
	if status != http.StatusOK {
		t.Fatalf("cold status %d", status)
	}
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 6; trial++ {
		status, warm := postMatch(t, srv.URL, req(isoText(t, base, rng)))
		if status != http.StatusOK {
			t.Fatalf("trial %d: warm status %d", trial, status)
		}
		if !bytes.Equal(cold, warm) {
			t.Fatalf("trial %d: warm body differs from cold\ncold: %s\nwarm: %s", trial, cold, warm)
		}
	}
	prom := scrapeMetrics(t, srv.URL)
	if !strings.Contains(prom, "amatchd_result_cache_hits_total 6\n") ||
		!strings.Contains(prom, "amatchd_result_cache_misses_total 1\n") {
		t.Errorf("wrong cache counters:\n%s", prom)
	}
}

// TestResultCacheEvictionDifferential forces result-cache eviction with a
// cap sized to hold exactly one of two alternating queries and checks that
// recomputed responses stay semantically identical — eviction costs latency,
// never answers.
func TestResultCacheEvictionDifferential(t *testing.T) {
	g := testGraph()
	reqA := MatchRequest{Template: triangleTemplate, K: 1, Count: true, Vectors: true}
	reqB := MatchRequest{Template: triangleTemplate, K: 2, Count: true, Vectors: true}

	// Measure the two body sizes on an uncapped server, then rebuild with a
	// cap that admits either body but never both.
	probe := NewWithConfig(g, Config{ResultCacheBytes: 1 << 20})
	psrv := httptest.NewServer(probe.Handler())
	_, bodyA := postMatch(t, psrv.URL, reqA)
	_, bodyB := postMatch(t, psrv.URL, reqB)
	psrv.Close()
	capBytes := int64(len(bodyA) + len(bodyB) - 1)

	s := NewWithConfig(g, Config{ResultCacheBytes: capBytes})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	wantA, wantB := decodeNormalized(t, bodyA), decodeNormalized(t, bodyB)
	for round := 0; round < 4; round++ {
		_, gotA := postMatch(t, srv.URL, reqA)
		if !reflect.DeepEqual(decodeNormalized(t, gotA), wantA) {
			t.Fatalf("round %d: post-eviction recompute of A diverged:\n%s\nvs\n%s", round, gotA, bodyA)
		}
		_, gotB := postMatch(t, srv.URL, reqB)
		if !reflect.DeepEqual(decodeNormalized(t, gotB), wantB) {
			t.Fatalf("round %d: post-eviction recompute of B diverged:\n%s\nvs\n%s", round, gotB, bodyB)
		}
	}
	if ev := s.rcache.evictions.Load(); ev == 0 {
		t.Fatal("alternating queries under a one-body cap never evicted; the differential is vacuous")
	}
}

// TestSingleFlightCoalesces floods the server with concurrent identical
// queries while the leader is pinned inside the pipeline: exactly one
// pipeline run may happen, every response must carry the leader's exact
// bytes, and the hit/miss counters must account for every request.
func TestSingleFlightCoalesces(t *testing.T) {
	const followers = 9
	s := NewWithConfig(testGraph(), Config{ResultCacheBytes: 1 << 20})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var runs atomic.Int32
	entered := make(chan struct{})
	releaseLeader := make(chan struct{})
	testHookMatch = func(*MatchRequest, int) {
		if runs.Add(1) == 1 {
			close(entered)
			<-releaseLeader
		}
	}
	defer func() { testHookMatch = nil }()

	req := MatchRequest{Template: triangleTemplate, K: 1, Count: true}
	type reply struct {
		status int
		body   []byte
	}
	replies := make(chan reply, followers+1)
	var wg sync.WaitGroup
	post := func() {
		defer wg.Done()
		payload, _ := json.Marshal(req)
		resp, err := http.Post(srv.URL+"/match", "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		replies <- reply{resp.StatusCode, body}
	}
	wg.Add(1)
	go post()
	<-entered
	// The leader is pinned inside the pipeline, so its flight is registered:
	// every request from here on either waits on it or, if it arrives after
	// completion, hits the populated cache — no timing window runs a second
	// pipeline either way.
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go post()
	}
	close(releaseLeader)
	wg.Wait()
	close(replies)

	if n := runs.Load(); n != 1 {
		t.Fatalf("pipeline ran %d times for %d identical queries", n, followers+1)
	}
	var first []byte
	count := 0
	for r := range replies {
		if r.status != http.StatusOK {
			t.Fatalf("status %d", r.status)
		}
		if first == nil {
			first = r.body
		} else if !bytes.Equal(first, r.body) {
			t.Fatalf("coalesced bodies differ:\n%s\nvs\n%s", first, r.body)
		}
		count++
	}
	if count != followers+1 {
		t.Fatalf("got %d replies, want %d", count, followers+1)
	}
	prom := scrapeMetrics(t, srv.URL)
	if !strings.Contains(prom, fmt.Sprintf("amatchd_result_cache_hits_total %d\n", followers)) ||
		!strings.Contains(prom, "amatchd_result_cache_misses_total 1\n") {
		t.Errorf("wrong single-flight accounting:\n%s", prom)
	}
}

// TestEpochBumpInvalidates checks that an /ingest epoch swap restores cold
// behavior: the result cache and the shared NLCC store are both purged, so
// the next identical query runs the pipeline again. The two batches insert
// and then delete one edge, so the graph ends as it started and the
// recompute must equal the cold answer.
func TestEpochBumpInvalidates(t *testing.T) {
	s, srv := newIngestServer(t, Config{ResultCacheBytes: 1 << 20, SharedNLCC: true})

	var runs atomic.Int32
	testHookMatch = func(*MatchRequest, int) { runs.Add(1) }
	defer func() { testHookMatch = nil }()

	req := MatchRequest{Template: triangleTemplate, K: 1, Count: true}
	_, cold := postMatch(t, srv.URL, req)
	_, warm := postMatch(t, srv.URL, req)
	if !bytes.Equal(cold, warm) {
		t.Fatal("warm body differs from cold before the ingest")
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("pipeline ran %d times before the ingest, want 1", n)
	}
	if s.nlccShared.Sets() == 0 {
		t.Fatal("the cold query left the shared NLCC store empty")
	}

	for _, batch := range []string{`{"insert":[[3,5]]}`, `{"delete":[[3,5]]}`} {
		if resp := postJSON(t, srv.URL+"/ingest", batch); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %s: status %d", batch, resp.StatusCode)
		}
	}
	if bytes_, entries := s.rcache.stats(); bytes_ != 0 || entries != 0 {
		t.Fatalf("result cache survived the ingest: %d bytes, %d entries", bytes_, entries)
	}
	if s.nlccShared.Sets() != 0 {
		t.Fatalf("shared NLCC store survived the ingest: %d sets", s.nlccShared.Sets())
	}

	_, recold := postMatch(t, srv.URL, req)
	if n := runs.Load(); n != 2 {
		t.Fatalf("post-ingest query did not rerun the pipeline (runs = %d)", n)
	}
	if !reflect.DeepEqual(decodeNormalized(t, cold), decodeNormalized(t, recold)) {
		t.Fatalf("post-ingest recompute diverged:\n%s\nvs\n%s", cold, recold)
	}
	_, rewarm := postMatch(t, srv.URL, req)
	if !bytes.Equal(recold, rewarm) {
		t.Fatal("cache did not repopulate after the ingest")
	}
	if n := runs.Load(); n != 2 {
		t.Fatalf("post-ingest warm query reran the pipeline (runs = %d)", n)
	}
}

// TestUncacheableTemplateBypasses submits a template whose canonicalization
// cost exceeds the admission bound (an all-same-label clique has factorial
// cell permutations) and checks it is answered correctly with the cache
// engaged but never consulted.
func TestUncacheableTemplateBypasses(t *testing.T) {
	// A star with 9 same-label leaves: color refinement cannot split the
	// leaf cell, so canonicalization would enumerate 9! ≫ 1<<16
	// permutations — too expensive for the admission path.
	var sb strings.Builder
	sb.WriteString("v 0 2\n")
	for i := 1; i <= 9; i++ {
		fmt.Fprintf(&sb, "v %d 1\n", i)
		fmt.Fprintf(&sb, "e 0 %d\n", i)
	}
	s := NewWithConfig(testGraph(), Config{ResultCacheBytes: 1 << 20})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	req := MatchRequest{Template: sb.String(), K: 0, Count: true}
	status, a := postMatch(t, srv.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	_, b := postMatch(t, srv.URL, req)
	if !reflect.DeepEqual(decodeNormalized(t, a), decodeNormalized(t, b)) {
		t.Fatal("uncacheable query not deterministic")
	}
	if _, entries := s.rcache.stats(); entries != 0 {
		t.Fatalf("over-cost template was cached anyway (%d entries)", entries)
	}
	if h, m := s.rcache.hits.Load(), s.rcache.misses.Load(); h != 0 || m != 0 {
		t.Fatalf("over-cost template touched the cache counters: hits=%d misses=%d", h, m)
	}
}

// TestResultCacheChargesFullEntryFootprint is the regression test for the
// accounting bug where put charged only len(body): an entry's charge must
// cover its key and a fixed per-entry overhead too, and eviction must refund
// exactly what insertion charged. With body-only accounting a flood of
// tiny-body/long-key entries would read as ~zero resident bytes and never
// evict.
func TestResultCacheChargesFullEntryFootprint(t *testing.T) {
	key := func(i int) string {
		return fmt.Sprintf("e0|k2|ctrue|vfalse|%s-%03d", strings.Repeat("x", 100), i)
	}
	body := []byte("{}\n")
	perEntry := entryCost(key(0), body)
	if perEntry <= int64(len(body)) {
		t.Fatalf("entryCost(%d-byte key, %d-byte body) = %d: key and overhead uncharged",
			len(key(0)), len(body), perEntry)
	}

	// Cap fits exactly 3 full entries but would fit thousands of bodies.
	c := newResultCache(3 * perEntry)
	for i := 0; i < 10; i++ {
		c.put(key(i), body)
	}
	bytes, entries := c.stats()
	if entries != 3 {
		t.Errorf("entries = %d, want 3 (body-only accounting would keep all 10)", entries)
	}
	if bytes != 3*perEntry {
		t.Errorf("accounted bytes = %d, want %d", bytes, 3*perEntry)
	}
	if bytes > c.maxBytes {
		t.Errorf("accounted bytes %d exceed cap %d", bytes, c.maxBytes)
	}
	if ev := c.evictions.Load(); ev != 7 {
		t.Errorf("evictions = %d, want 7", ev)
	}
	// LRU order: the three newest survive, the oldest were evicted.
	if c.get(key(0)) != nil || c.get(key(9)) == nil {
		t.Error("eviction order wrong")
	}

	// An entry whose full footprint exceeds the cap is refused outright even
	// though its body alone would fit.
	small := newResultCache(perEntry - 1)
	small.put(key(42), body)
	if bytes, entries := small.stats(); bytes != 0 || entries != 0 {
		t.Errorf("over-cap entry admitted: %d bytes, %d entries", bytes, entries)
	}
}
