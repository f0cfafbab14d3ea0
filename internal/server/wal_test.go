package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"approxmatch/internal/wal"
)

// walServer recovers dir's WAL over testGraph and builds an
// ingest-enabled server on the recovered state, exactly as amatchd does
// on boot.
func walServer(t *testing.T, opts wal.Options) (*Server, *httptest.Server, *wal.Log, *wal.Recovery) {
	t.Helper()
	l, rec, err := wal.Open(opts, testGraph())
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithConfig(rec.Graph, Config{EnableIngest: true, WAL: l, StartEpoch: rec.Epoch})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(func() { l.Close() })
	return s, srv, l, rec
}

// canonicalMatch posts req to /match and returns the response body with
// the volatile elapsed_ms field stripped; everything else (prototypes,
// counts, vectors, partial flag) must be byte-identical across a
// crash-restart.
func canonicalMatch(t *testing.T, url string, req MatchRequest) string {
	t.Helper()
	body, _ := json.Marshal(req)
	resp := postJSON(t, url+"/match", string(body))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("match status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "elapsed_ms")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// randomBatches generates n ingest bodies that are valid in sequence
// against testGraph: the 3-5 edge toggles (tracking presence so inserts
// and deletes always validate) and vertices get random relabels, distinct
// within a batch so no intra-batch conflicts arise.
func randomBatches(rng *rand.Rand, n int) []string {
	has35 := false
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		var ins, del, rel []string
		if rng.Intn(2) == 0 {
			if has35 {
				del = append(del, "[3,5]")
			} else {
				ins = append(ins, "[3,5]")
			}
			has35 = !has35
		}
		perm := rng.Perm(6)
		for j := rng.Intn(3); j > 0; j-- {
			rel = append(rel, fmt.Sprintf("[%d,%d]", perm[j], 1+rng.Intn(3)))
		}
		if len(ins)+len(del)+len(rel) == 0 {
			rel = append(rel, fmt.Sprintf("[%d,1]", perm[0]))
		}
		out = append(out, fmt.Sprintf(`{"insert":[%s],"delete":[%s],"relabel":[%s]}`,
			strings.Join(ins, ","), strings.Join(del, ","), strings.Join(rel, ",")))
	}
	return out
}

// lastSegment returns the newest WAL segment file in dir.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (%v)", dir, err)
	}
	sort.Strings(segs) // names are zero-padded hex: lexical == numeric
	return segs[len(segs)-1]
}

// TestCrashRestartDifferential is the restart-identity suite: a WAL-backed
// server and a WAL-less reference consume the same randomized batch
// sequence; the WAL server is then "crashed" (HTTP torn down, log closed
// without a checkpoint; on odd seeds a partial record — a mid-append
// crash of a batch that was never acknowledged — is splattered onto the
// segment tail) and recovered. The recovered server must be
// indistinguishable from the reference: same epoch, same match counts,
// byte-identical /match bodies.
func TestCrashRestartDifferential(t *testing.T) {
	const nBatches = 12
	for _, policy := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncInterval, wal.SyncNone} {
		for seed := int64(0); seed < 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", policy, seed), func(t *testing.T) {
				dir := t.TempDir()
				batches := randomBatches(rand.New(rand.NewSource(seed)), nBatches)
				_, vsrv, vlog, _ := walServer(t, wal.Options{Dir: dir, Sync: policy, CheckpointEvery: 5})
				_, rsrv := newIngestServer(t, Config{})
				for i, b := range batches {
					for _, u := range []string{vsrv.URL, rsrv.URL} {
						if resp := postJSON(t, u+"/ingest", b); resp.StatusCode != http.StatusOK {
							t.Fatalf("batch %d on %s: status %d (%s)", i, u, resp.StatusCode, b)
						}
					}
				}
				// Crash: drop the listener and the log handle. Writes were
				// unbuffered, so the on-disk bytes are what kill -9 leaves.
				vsrv.Close()
				vlog.Close()
				tornInjected := seed%2 == 1
				if tornInjected {
					f, err := os.OpenFile(lastSegment(t, dir), os.O_APPEND|os.O_WRONLY, 0)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := f.Write([]byte{0xee, 0xee, 0xee, 0xee, 0x01, 0x02}); err != nil {
						t.Fatal(err)
					}
					f.Close()
				}

				_, v2srv, _, rec := walServer(t, wal.Options{Dir: dir, Sync: policy, CheckpointEvery: 5})
				if rec.Epoch != nBatches {
					t.Fatalf("recovered epoch %d, want %d", rec.Epoch, nBatches)
				}
				if rec.TornTail != tornInjected {
					t.Fatalf("TornTail = %v, want %v", rec.TornTail, tornInjected)
				}
				if !rec.FromCheckpoint || rec.CheckpointEpoch != 10 {
					t.Fatalf("recovery = %+v, want checkpoint at epoch 10 bounding replay", rec)
				}
				if rec.Replayed != nBatches-10 {
					t.Fatalf("replayed %d records, want %d", rec.Replayed, nBatches-10)
				}

				if got, want := getStats(t, v2srv.URL).Epoch, getStats(t, rsrv.URL).Epoch; got != want {
					t.Fatalf("recovered epoch %d != reference %d", got, want)
				}
				for _, req := range []MatchRequest{
					{Template: triangleTemplate, K: 0, Count: true},
					{Template: triangleTemplate, K: 1, Count: true},
					{Template: triangleTemplate, K: 1},
				} {
					got := canonicalMatch(t, v2srv.URL, req)
					want := canonicalMatch(t, rsrv.URL, req)
					if got != want {
						t.Fatalf("K=%d match body diverged after restart:\n got %s\nwant %s", req.K, got, want)
					}
				}
			})
		}
	}
}

// TestIngestDurabilityFailure: when the WAL append cannot be made durable
// the batch must be rejected — 500, no epoch advance, no graph change —
// and a later batch (and a restart) must see a consistent log.
func TestIngestDurabilityFailure(t *testing.T) {
	dir := t.TempDir()
	opts := wal.Options{
		Dir:  dir,
		Sync: wal.SyncAlways,
		OpenFile: func(path string) (wal.File, error) {
			return wal.NewFaultFile(path, wal.FaultSpec{FailSyncAt: 2})
		},
	}
	_, srv, l, _ := walServer(t, opts)
	if resp := postJSON(t, srv.URL+"/ingest", `{"insert":[[3,5]]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("first ingest: status %d", resp.StatusCode)
	}
	// Second append hits the injected short fsync: rejected, rolled back.
	resp := postJSON(t, srv.URL+"/ingest", `{"delete":[[3,5]]}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("non-durable ingest: status %d, want 500", resp.StatusCode)
	}
	if st := getStats(t, srv.URL); st.Epoch != 1 {
		t.Fatalf("failed append advanced the epoch to %d", st.Epoch)
	}
	// The rejected batch changed nothing: 3-5 still present, so deleting
	// it again must succeed now that the fault is spent.
	if resp := postJSON(t, srv.URL+"/ingest", `{"delete":[[3,5]]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-fault ingest: status %d", resp.StatusCode)
	}
	prom := scrapeMetrics(t, srv.URL)
	for _, want := range []string{
		"amatchd_ingest_rejected_total 1",
		"amatchd_wal_appends_total 2",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	srv.Close()
	l.Close()

	_, _, l2, rec := walServer(t, wal.Options{Dir: dir})
	defer l2.Close()
	if rec.Epoch != 2 || rec.TornTail {
		t.Fatalf("recovery = epoch %d torn %v, want 2/false (rollback left a clean tail)", rec.Epoch, rec.TornTail)
	}
}

// TestWALMetricsExposed: the durability counter families render on
// /metrics when a WAL is attached.
func TestWALMetricsExposed(t *testing.T) {
	_, srv, _, _ := walServer(t, wal.Options{Dir: t.TempDir(), Sync: wal.SyncAlways, CheckpointEvery: 1})
	if resp := postJSON(t, srv.URL+"/ingest", `{"insert":[[3,5]]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
	prom := scrapeMetrics(t, srv.URL)
	for _, want := range []string{
		"amatchd_wal_appends_total 1",
		"amatchd_wal_bytes_total",
		"amatchd_wal_checkpoints_total 1",
		"amatchd_wal_replayed_records_total 0",
		"amatchd_wal_torn_tail_truncations_total 0",
		"amatchd_wal_recovery_seconds",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("metrics missing %q:\n%s", want, prom)
		}
	}
	if !strings.Contains(prom, "amatchd_wal_fsyncs_total") {
		t.Error("fsync counter family missing")
	}
}

// TestReadyGate: amatchd binds its listener before recovery; until the
// real handler is installed every route answers 503 with a Retry-After.
func TestReadyGate(t *testing.T) {
	gate := NewReadyGate()
	srv := httptest.NewServer(gate)
	defer srv.Close()
	for _, path := range []string{"/healthz", "/match", "/stats"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s before Ready: status %d, want 503", path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s before Ready: no Retry-After", path)
		}
	}
	s := NewWithConfig(testGraph(), Config{})
	gate.Ready(s.Handler())
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after Ready: status %d", resp.StatusCode)
	}
}
