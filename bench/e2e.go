package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"approxmatch/internal/graph"
	"approxmatch/internal/server"
)

const (
	setupRepeats   = 3 // set-ups per run; setup_s is their median
	recoverRepeats = 5 // kill -9 / restart cycles per run; recover_s is their median
)

// clientCount is C: one process, at most four connections, never more than
// the host has CPUs — the load generator shares them with the server.
func clientCount() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// daemonFlags are the amatchd flags a workload runs with beyond the
// defaults. Every workload serves with durable ingest on, because every
// workload ends with a write phase and a kill -9.
func daemonFlags(w *workload, graphPath, walDir string) []string {
	flags := []string{"-graph", graphPath, "-ingest", "-wal-dir", walDir, "-wal-sync", "always"}
	if !w.cache {
		flags = append(flags, "-result-cache-bytes", "0")
	}
	return flags
}

// e2e drives one end-to-end run of one workload against a live amatchd.
type e2e struct {
	w       *workload
	seed    int64
	seconds float64
	bin     string
	workDir string

	g     *graph.Graph
	mix   *mix
	d     *daemon
	flags []string

	tally
}

// setUp generates the dataset, writes the edge list, starts amatchd on it,
// waits until it is ready and, for a cached workload, warms the pool. It
// returns the warm-up bodies.
func (r *e2e) setUp(dir string) ([][]byte, error) {
	g, pool := r.w.build()
	r.g, r.mix = g, newMix(r.w, pool, r.seed)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	graphPath := filepath.Join(dir, "graph.txt")
	f, err := os.Create(graphPath)
	if err != nil {
		return nil, err
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	r.flags = daemonFlags(r.w, graphPath, filepath.Join(dir, "wal"))
	if r.d, err = startDaemon(r.bin, r.flags); err != nil {
		return nil, err
	}
	if !r.w.cache {
		return nil, nil
	}
	return r.postPool(newClient())
}

// postPool posts every pool entry once under its own numbering and returns
// copies of the bodies.
func (r *e2e) postPool(c *client) ([][]byte, error) {
	bodies := make([][]byte, len(r.mix.pool))
	for qi := range r.mix.pool {
		status, body, err := c.post(r.d.base+"/match", r.mix.canonical(qi))
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("%s: status %d: %s", r.mix.pool[qi].name, status, body)
		}
		bodies[qi] = append([]byte(nil), body...)
	}
	return bodies, nil
}

// checkPool compares pool bodies with the reference, exactly.
func (r *e2e) checkPool(what string, bodies [][]byte, want []expectation) {
	for qi, body := range bodies {
		r.attempted++
		if err := want[qi].check(body, true); err != nil {
			r.fail("%s %s: %v", what, r.mix.pool[qi].name, err)
		}
	}
}

type readerStats struct {
	tally
	lat []float64 // ms, correct responses only
}

// reader is one closed-loop client: it takes the next request of the shared
// sequence, posts it, checks the body and repeats until the deadline. seen
// holds, per pool entry, the last body that passed the check (the warm-up
// bodies to begin with), so a cached workload decodes a body once per graph
// epoch, not once per response.
func (r *e2e) reader(next *atomic.Uint64, deadline time.Time, want []expectation, warm [][]byte, exact bool, out *readerStats) {
	c := newClient()
	seen := make([][]byte, len(want))
	for qi := range warm {
		seen[qi] = append([]byte(nil), warm[qi]...)
	}
	url := r.d.base + "/match"
	for time.Now().Before(deadline) {
		qi, req := r.mix.request(next.Add(1) - 1)
		t0 := time.Now()
		status, body, err := c.post(url, req)
		dt := time.Since(t0)
		out.attempted++
		switch {
		case err != nil:
			err = fmt.Errorf("match: %w", err)
		case status != http.StatusOK:
			err = fmt.Errorf("match: status %d: %.200s", status, body)
		case !bytes.Equal(body, seen[qi]):
			if err = want[qi].check(body, exact); err == nil {
				seen[qi] = append(seen[qi][:0], body...)
			}
		}
		if err != nil {
			out.fail("%s: %v", r.mix.pool[qi].name, err)
			continue
		}
		out.lat = append(out.lat, float64(dt)/1e6)
	}
}

type writerStats struct {
	lat      []float64 // ms from the batch's due time to its ack
	lateness []float64 // ms the generator sent after the due time
	acked    int
	failure  string
}

// writer posts batches on one connection. With period > 0 it is open loop:
// batch i is due at start + i*period and timed from then, so a stall shows
// in the batches queued behind it. With period 0 it is closed loop.
func (r *e2e) writer(batches []batch, start time.Time, period time.Duration, out *writerStats) {
	c := newClient()
	for i, b := range batches {
		due := time.Now()
		if period > 0 {
			due = start.Add(time.Duration(i) * period)
			time.Sleep(time.Until(due))
		}
		sent := time.Now()
		status, body, err := c.post(r.d.base+"/ingest", b.body)
		var resp server.IngestResponse
		switch {
		case err != nil:
		case status != http.StatusOK:
			err = fmt.Errorf("status %d: %.200s", status, body)
		default:
			if err = json.Unmarshal(body, &resp); err == nil && resp.Epoch != uint64(i+1) {
				err = fmt.Errorf("acked epoch %d, want %d", resp.Epoch, i+1)
			}
		}
		if err != nil {
			// Later batches delete edges this one inserts; stop rather than
			// post batches that cannot apply.
			out.failure = fmt.Sprintf("ingest batch %d: %v", i, err)
			return
		}
		out.acked++
		out.lat = append(out.lat, float64(time.Since(due))/1e6)
		out.lateness = append(out.lateness, float64(sent.Sub(due))/1e6)
	}
}

type clientBlock struct {
	Clients       int       `json:"clients"`
	Readers       int       `json:"readers"`
	Loop          string    `json:"loop"`
	Queries       int       `json:"queries"`
	QueryTail     string    `json:"query_tail,omitempty"`
	QueryTailMS   float64   `json:"query_tail_ms,omitempty"`
	Batches       int       `json:"ingest_batches"`
	IngestSamples int       `json:"ingest_samples"`
	LatenessP50MS float64   `json:"writer_lateness_p50_ms"`
	LatenessMaxMS float64   `json:"writer_lateness_max_ms"`
	SetupS        []float64 `json:"setup_s_each"`
	RecoverS      []float64 `json:"recover_s_each"`
	InputHash     string    `json:"input_hash"`
	AmatchdFlags  []string  `json:"amatchd_flags"`
	MeasuredS     float64   `json:"measured_s"`
}

func (r *e2e) run() (*result, error) {
	defer func() {
		if r.d != nil {
			r.d.kill()
		}
		os.RemoveAll(r.workDir)
	}()
	cb := clientBlock{Clients: clientCount(), Loop: "closed"}

	// Set-up, several times over; the last instance serves the run. Where
	// the write phase is quiescent the earlier instances take it too before
	// they go, so that ingest_p50_ms is a median over several server
	// processes: between processes it moves more than within one.
	var warm [][]byte
	var batches []batch
	var ws writerStats
	for i := 0; ; i++ {
		dir := filepath.Join(r.workDir, fmt.Sprintf("setup%d", i))
		t0 := time.Now()
		var err error
		if warm, err = r.setUp(dir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		cb.SetupS = append(cb.SetupS, time.Since(t0).Seconds())
		if batches == nil {
			nBatches := tailBatches
			if r.w.writerHz > 0 {
				nBatches = int(r.w.writerHz*r.seconds + 0.5)
			}
			batches = genBatches(r.g, r.seed, nBatches)
		}
		if i == setupRepeats-1 {
			break
		}
		if r.w.writerHz == 0 {
			var early writerStats
			if r.writer(batches, time.Time{}, 0, &early); early.failure != "" {
				return nil, fmt.Errorf("set-up instance %d: %s", i, early.failure)
			}
			ws.lat = append(ws.lat, early.lat...)
			r.attempted += early.acked
		}
		r.d.kill()
		r.d = nil
		os.RemoveAll(dir)
	}
	pool := r.mix.pool
	cb.InputHash = inputHash(r.mix, batches, 1024)
	cb.AmatchdFlags = r.flags

	want, err := reference(r.g, pool)
	if err != nil {
		return nil, err
	}
	r.checkPool("warm-up", warm, want)

	// Measured phase.
	ctl := newClient()
	scrape := func() (promSample, error) {
		status, body, err := ctl.get(r.d.base + "/metrics")
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("scrape /metrics: status %d: %v", status, err)
		}
		return parseProm(body), nil
	}
	before, err := scrape()
	if err != nil {
		return nil, err
	}
	readers := cb.Clients
	if r.w.writerHz > 0 {
		cb.Loop = "closed readers + open-loop writer"
		if readers--; readers < 1 {
			readers = 1
		}
	}
	cb.Readers = readers
	stats := make([]readerStats, readers)
	var next atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(r.seconds * float64(time.Second)))
	for i := range stats {
		wg.Add(1)
		go func(out *readerStats) {
			defer wg.Done()
			r.reader(&next, deadline, want, warm, r.w.writerHz == 0, out)
		}(&stats[i])
	}
	if r.w.writerHz > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.writer(batches, start, time.Duration(float64(time.Second)/r.w.writerHz), &ws)
		}()
	}
	wg.Wait()
	measured := time.Since(start)
	after, err := scrape()
	if err != nil {
		return nil, err
	}
	var lat []float64
	for _, s := range stats {
		lat = append(lat, s.lat...)
		r.add(s.tally)
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no correct /match response in the measured phase: %s", r.firstFailure)
	}

	// Write phase for the workloads without a concurrent writer.
	if r.w.writerHz == 0 {
		r.writer(batches, time.Time{}, 0, &ws)
	}
	r.add(tally{attempted: len(batches), failed: len(batches) - ws.acked, firstFailure: ws.failure})
	if ws.acked == 0 {
		return nil, fmt.Errorf("no /ingest batch acknowledged: %s", ws.failure)
	}

	// Final epoch: mirror every acked delta, then the whole pool must agree
	// with the reference on the mirrored graph — before the kill and after
	// recovery.
	mirror := r.g
	for _, b := range batches[:ws.acked] {
		if mirror, _, err = graph.ApplyDelta(mirror, b.delta); err != nil {
			return nil, fmt.Errorf("mirror delta: %w", err)
		}
	}
	if want, err = reference(mirror, pool); err != nil {
		return nil, err
	}
	r.checkStats(ctl, "final epoch", mirror, ws.acked)
	final, err := r.postPool(ctl)
	if err != nil {
		return nil, fmt.Errorf("final-epoch pool: %w", err)
	}
	r.checkPool("final epoch", final, want)

	for i := 0; i < recoverRepeats; i++ {
		t0 := time.Now()
		r.d.kill()
		if r.d, err = startDaemon(r.bin, r.flags); err != nil {
			return nil, fmt.Errorf("restart after kill -9: %w", err)
		}
		cb.RecoverS = append(cb.RecoverS, time.Since(t0).Seconds())
	}
	ctl = newClient()
	r.checkStats(ctl, "recovered", mirror, ws.acked)
	recovered, err := r.postPool(ctl)
	if err != nil {
		return nil, fmt.Errorf("recovered pool: %w", err)
	}
	r.checkPool("recovered", recovered, want)
	for qi := range recovered {
		r.attempted++
		if !sameModuloElapsed(final[qi], recovered[qi]) {
			r.fail("recovered %s: body differs from the pre-kill body beyond elapsed_ms", pool[qi].name)
		}
	}

	cb.Queries = len(lat)
	cb.QueryTail, cb.QueryTailMS, _ = tail(lat)
	cb.Batches, cb.IngestSamples = ws.acked, len(ws.lat)
	cb.LatenessP50MS, cb.LatenessMaxMS = median(ws.lateness), maxOf(ws.lateness)
	cb.MeasuredS = measured.Seconds()
	sc := counterDelta(before, after)
	res := &result{
		Workload: r.w.name, Seed: r.seed, Seconds: r.seconds,
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, FirstFailure: r.firstFailure,
		Client: &cb, Server: &sc,
		Metrics: map[string]metric{
			"query_p50_ms":  {median(lat), "ms"},
			"queries_per_s": {float64(len(lat)) / measured.Seconds(), "1/s"},
			"ingest_p50_ms": {median(ws.lat), "ms"},
			"recover_s":     {median(cb.RecoverS), "s"},
			"setup_s":       {median(cb.SetupS), "s"},
		},
	}
	return res, nil
}

// checkStats compares /stats with the mirrored graph: the epoch must be the
// last acked one and the edge count the mirror's.
func (r *e2e) checkStats(c *client, what string, mirror *graph.Graph, acked int) {
	r.attempted++
	status, body, err := c.get(r.d.base + "/stats")
	var st server.StatsResponse
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(body, &st)
	}
	switch {
	case err != nil || status != http.StatusOK:
		r.fail("%s /stats: status %d: %v", what, status, err)
	case st.Epoch != uint64(acked) || st.Edges != mirror.NumEdges():
		r.fail("%s /stats: epoch %d edges %d, want epoch %d edges %d", what, st.Epoch, st.Edges, acked, mirror.NumEdges())
	}
}
