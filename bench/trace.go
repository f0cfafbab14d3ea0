package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"approxmatch/internal/core"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
	"approxmatch/internal/prototype"
	"approxmatch/internal/server"
	"approxmatch/internal/wal"
)

// span is one timed call. Spans of one request share req; parent 0 marks a
// root. The layer is the part of the name before the first dot.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// do times fn as a span under parent and returns the span's id; fn may
// record children under that id.
func (t *tracer) do(parent, req int, name string, fn func(id int)) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))})
	fn(id)
	t.spans[id-1].End = int64(time.Since(t.t0))
	return id
}

// selfTimes gives each span's duration minus its direct children's. The
// children of a handler span are replays made after the handler returned,
// so they are subtracted by duration, not by overlap, and a replay slower
// than the original can push a self time below zero; it is reported as
// measured so that the self times of a tree always sum to its root.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// servingConfig resolves amatchd's scheduler-aware defaults (see
// server.Config) for this host, so the in-process server and the replayed
// pipeline run under one explicit configuration.
func servingConfig() (maxConcurrent, parallelism, workers int) {
	procs := runtime.GOMAXPROCS(0)
	maxConcurrent = procs / 2
	if maxConcurrent < 1 {
		maxConcurrent = 1
	}
	parallelism = procs / maxConcurrent
	if parallelism < 2 {
		parallelism = 2
	}
	workers = procs / maxConcurrent
	if workers <= 1 {
		workers = 0
	}
	return
}

type levelRow struct {
	Dist           int     `json:"dist"`
	Prototypes     int     `json:"prototypes"`
	ActiveVertices int     `json:"active_vertices"`
	ActiveFraction float64 `json:"active_fraction"`
	DurationMS     float64 `json:"duration_ms"`
}

const (
	traceSampleMax   = 2000 // measured-phase requests traced per run
	traceBatches     = 8
	traceReadsPerMix = traceSampleMax / traceBatches
)

// traced is one in-process traced run: the workload's request sequence
// goes through server.Handler() under a root span, then each request is
// replayed through the layers' public functions in handler order, one child
// span per call.
type traced struct {
	w       *workload
	tr      tracer
	h       http.Handler
	mix     *mix
	cur     *graph.Graph // the served graph, internal ids, current epoch
	epoch   int
	seenAt  []int // per pool entry: epoch its result was last cached at (-1 never)
	replayC *core.Cache
	replayW *wal.Log
	par, wk int

	tally
	req      int
	measured map[int]bool // root span ids of the measured phase

	canonNS, runW0NS, runWNNS []float64
	protoCounts               []float64
	pipeline                  core.Metrics
	pipelineRuns              int
	rebuild                   []float64
	levels                    map[string][]levelRow
}

func (t *traced) serve(method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

func (t *traced) pipelineConfig(k, workers int) core.Config {
	cfg := core.DefaultConfig(k)
	cfg.CountMatches = true
	cfg.SharedCache = t.replayC
	cfg.Workers = workers
	return cfg
}

// match traces one /match request of pool entry qi.
func (t *traced) match(qi int, body []byte, want *expectation, measured bool) {
	t.req++
	t.attempted++
	ran := !t.w.cache || t.seenAt[qi] != t.epoch
	t.seenAt[qi] = t.epoch
	root := t.tr.do(0, t.req, "server.match", func(int) {
		rec := t.serve(http.MethodPost, "/match", body)
		if rec.Code != http.StatusOK {
			t.fail("%s: status %d: %.200s", t.mix.pool[qi].name, rec.Code, rec.Body.Bytes())
		} else if err := want.check(rec.Body.Bytes(), true); err != nil {
			t.fail("%s: %v", t.mix.pool[qi].name, err)
		}
	})
	if measured {
		t.measured[root] = true
	}
	var mb matchBody
	if err := json.Unmarshal(body, &mb); err != nil {
		panic(err)
	}
	var tpl *pattern.Template
	t.tr.do(root, t.req, "pattern.Parse", func(int) {
		var err error
		if tpl, err = pattern.Parse(strings.NewReader(mb.Template)); err != nil {
			panic(err)
		}
	})
	// The handler canonicalizes only when the result cache is on; measure
	// it either way, but it is the handler's child only when it ran there.
	canon := func(int) {
		if pattern.CanonicalCost(tpl) <= 1<<16 {
			ct, _ := pattern.CanonicalForm(tpl)
			_ = pattern.CanonicalKey(ct)
			if t.w.cache {
				tpl = ct
			}
		}
	}
	t0 := time.Now()
	if t.w.cache {
		t.tr.do(root, t.req, "pattern.Canonical", canon)
	} else {
		canon(0)
	}
	t.canonNS = append(t.canonNS, float64(time.Since(t0)))
	if !ran {
		return
	}
	ctx := context.Background()
	run := t.tr.do(root, t.req, "core.RunParallelContext", func(int) {
		res, err := core.RunParallelContext(ctx, t.cur, tpl, t.pipelineConfig(mb.K, t.wk), t.par)
		if err != nil {
			panic(err)
		}
		t.pipeline.Add(&res.Metrics)
		t.pipelineRuns++
		t.protoCounts = append(t.protoCounts, float64(res.Set.Count()))
		rows := make([]levelRow, len(res.Levels))
		for i, l := range res.Levels {
			rows[i] = levelRow{l.Dist, l.Prototypes, l.ActiveVertices, l.ActiveFraction, float64(l.Duration) / 1e6}
		}
		t.levels[t.mix.pool[qi].name] = rows
	})
	// Both run inside RunParallelContext; replayed on their own they are
	// its children.
	t.tr.do(run, t.req, "prototype.Generate", func(int) {
		if _, err := prototype.Generate(tpl, mb.K); err != nil {
			panic(err)
		}
	})
	t.tr.do(run, t.req, "core.MaxCandidateSetWorkers", func(int) {
		var m core.Metrics
		core.MaxCandidateSetWorkers(t.cur, tpl, t.wk, &m)
	})
	// The same pipeline at both ends of the Workers range, outside the tree
	// and each with a private NLCC cache, so neither inherits the other's.
	for _, v := range []struct {
		workers int
		into    *[]float64
	}{{0, &t.runW0NS}, {runtime.NumCPU(), &t.runWNNS}} {
		cfg := t.pipelineConfig(mb.K, v.workers)
		cfg.SharedCache = nil
		t0 := time.Now()
		if _, err := core.RunParallelContext(ctx, t.cur, tpl, cfg, t.par); err != nil {
			panic(err)
		}
		*v.into = append(*v.into, float64(time.Since(t0)))
	}
}

// ingest traces one /ingest batch.
func (t *traced) ingest(b batch) {
	t.req++
	t.attempted++
	root := t.tr.do(0, t.req, "server.ingest", func(int) {
		if rec := t.serve(http.MethodPost, "/ingest", b.body); rec.Code != http.StatusOK {
			t.fail("ingest: status %d: %.200s", rec.Code, rec.Body.Bytes())
		}
	})
	d := graph.TranslateDeltaToInternal(t.cur, b.delta)
	t.tr.do(root, t.req, "graph.ApplyDelta", func(int) {
		next, _, err := graph.ApplyDelta(t.cur, d)
		if err != nil {
			panic(err)
		}
		t.cur = next
	})
	t.epoch++
	t.tr.do(root, t.req, "wal.Append", func(int) {
		if err := t.replayW.Append(uint64(t.epoch), d); err != nil {
			panic(err)
		}
	})
	t.rebuild = append(t.rebuild, ratio(float64(t.cur.NumEdges()), float64(len(d.Insert)+len(d.Delete))))
}

// boot replays amatchd's start-up — read the edge list, relabel by degree,
// recover the WAL — under one root span.
func (t *traced) boot(name string, edgeList []byte, walDir string) (*graph.Graph, *wal.Log, *wal.Recovery) {
	var g *graph.Graph
	var log *wal.Log
	var rec *wal.Recovery
	t.req++
	t.tr.do(0, t.req, name, func(id int) {
		var err error
		t.tr.do(id, t.req, "graph.ReadEdgeList", func(int) {
			if g, err = graph.ReadEdgeList(bytes.NewReader(edgeList)); err != nil {
				panic(err)
			}
		})
		t.tr.do(id, t.req, "graph.RelabelByDegree", func(int) { g = graph.RelabelByDegree(g) })
		t.tr.do(id, t.req, "wal.Open", func(int) {
			if log, rec, err = wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncAlways, CheckpointEvery: 256}, g); err != nil {
				panic(err)
			}
			g = rec.Graph
		})
	})
	return g, log, rec
}

func runTraced(w *workload, seed int64, seconds float64, workDir, outDir string) (res *result, err error) {
	defer os.RemoveAll(workDir)
	defer func() {
		// Replays call the layers directly; a failure there is a harness or
		// program bug, reported as an error rather than a crash.
		if p := recover(); p != nil {
			err = fmt.Errorf("traced run: %v", p)
		}
	}()
	g, pool := w.build()
	t := &traced{w: w, tr: tracer{t0: time.Now()}, mix: newMix(w, pool, seed), measured: map[int]bool{}, levels: map[string][]levelRow{}}
	var edgeList bytes.Buffer
	if err := graph.WriteEdgeList(&edgeList, g); err != nil {
		return nil, err
	}
	walDir := filepath.Join(workDir, "wal")
	gs, log, _ := t.boot("bench.startup", edgeList.Bytes(), walDir)
	t.cur = gs
	mc, par, wk := servingConfig()
	t.par, t.wk = par, wk
	cfg := server.Config{
		MaxConcurrent: mc, Parallelism: par, Workers: wk,
		QueryTimeout: 30 * time.Second, SharedNLCC: true,
		EnableIngest: true, WAL: log,
	}
	if wk == 0 {
		cfg.Workers = -1
	}
	if w.cache {
		cfg.ResultCacheBytes = 64 << 20
	}
	t.h = server.NewWithConfig(gs, cfg).Handler()
	t.replayC = core.NewCacheBytes(gs.NumVertices(), 0)
	if t.replayW, _, err = wal.Open(wal.Options{Dir: filepath.Join(workDir, "wal-replay"), Sync: wal.SyncAlways}, gs); err != nil {
		return nil, err
	}
	t.seenAt = make([]int, len(pool))
	for i := range t.seenAt {
		t.seenAt[i] = -1
	}

	want, err := reference(g, pool)
	if err != nil {
		return nil, err
	}
	if w.cache {
		for qi := range pool {
			t.match(qi, t.mix.canonical(qi), &want[qi], false)
		}
	}
	before := parseProm(t.serve(http.MethodGet, "/metrics", nil).Body.Bytes())
	batches := genBatches(g, seed, traceBatches)
	// Measured-phase sample: stop at the sample cap or when the time is
	// up, but never before every pool entry of a round-robin mix was seen.
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < traceSampleMax; i++ {
		if time.Now().After(deadline) && (w.zipf || i >= len(pool)) {
			break
		}
		if w.writerHz > 0 && i > 0 && i%traceReadsPerMix == 0 {
			t.ingest(batches[t.epoch])
			if want, err = reference(t.cur, pool); err != nil {
				return nil, err
			}
		}
		qi, body := t.mix.request(uint64(i))
		t.match(qi, body, &want[qi], true)
	}
	after := parseProm(t.serve(http.MethodGet, "/metrics", nil).Body.Bytes())
	for t.epoch < len(batches) {
		t.ingest(batches[t.epoch])
	}
	// Recovery: close the server's log and boot again on its directory.
	if err := log.Close(); err != nil {
		return nil, err
	}
	rg, rlog, rec := t.boot("bench.recover", edgeList.Bytes(), walDir)
	t.attempted++
	if rec.Epoch != uint64(t.epoch) || rec.Replayed != t.epoch || rg.NumEdges() != t.cur.NumEdges() {
		t.fail("recovery: epoch %d replayed %d edges %d, want epoch %d edges %d", rec.Epoch, rec.Replayed, rg.NumEdges(), t.epoch, t.cur.NumEdges())
	}
	walStats := t.replayW.Stats()
	if err := rlog.Close(); err != nil {
		return nil, err
	}
	if err := t.replayW.Close(); err != nil {
		return nil, err
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	spansJSON, err := json.Marshal(t.tr.spans)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(outDir, "trace."+w.name+".json"), spansJSON, 0o644); err != nil {
		return nil, err
	}
	return t.result(seed, seconds, counterDelta(before, after), walStats, rec), nil
}

// result folds the spans into the per-layer metrics.
func (t *traced) result(seed int64, seconds float64, sc serverCounters, ws wal.Stats, rec *wal.Recovery) *result {
	self := selfTimes(t.tr.spans)
	byName := map[string][]float64{} // span name -> durations, ns
	layers := map[string]float64{}   // layer -> total self time, ms
	var handlerNS, handlerSelfNS, pipelineNS []float64
	for _, s := range t.tr.spans {
		byName[s.Name] = append(byName[s.Name], float64(s.dur()))
		layers[layerOf(s.Name)] += float64(self[s.ID]) / 1e6
		switch {
		case t.measured[s.ID]:
			handlerNS = append(handlerNS, float64(s.dur()))
			handlerSelfNS = append(handlerSelfNS, float64(self[s.ID]))
		case s.Name == "core.RunParallelContext" && t.measured[s.Parent]:
			pipelineNS = append(pipelineNS, float64(s.dur()))
		}
	}
	ms := func(name string) float64 { return mean(byName[name]) / 1e6 }
	us := func(name string) float64 { return mean(byName[name]) / 1e3 }
	runs := float64(t.pipelineRuns)
	p := t.pipeline
	phaseNS := float64(p.CandidateTime + p.LCCTime + p.NLCCTime + p.VerifyTime)
	openMS := byName["wal.Open"][len(byName["wal.Open"])-1] / 1e6
	m := map[string]metric{
		"server.handler_ms":         {mean(handlerNS) / 1e6, "ms"},
		"server.self_ms":            {mean(handlerSelfNS) / 1e6, "ms"},
		"server.unattributed_ratio": {ratio(sum(handlerSelfNS), sum(handlerNS)), "ratio"},
		"server.pipeline_share":     {ratio(sum(pipelineNS), sum(handlerNS)), "ratio"},
		"server.cache_hit_ratio":    {sc.HitRatio, "ratio"},
		"server.coalesced":          {sc.Coalesced, "count"},
		"server.shed":               {sc.Shed, "count"},
		"pattern.parse_us":          {us("pattern.Parse"), "us"},
		"pattern.canonical_us":      {mean(t.canonNS) / 1e3, "us"},
		"prototype.generate_us":     {us("prototype.Generate"), "us"},
		"prototype.count":           {mean(t.protoCounts), "count"},
		"core.candset_ms":           {ms("core.MaxCandidateSetWorkers"), "ms"},
		"core.run_ms":               {ms("core.RunParallelContext"), "ms"},
		"core.run_w0_ms":            {mean(t.runW0NS) / 1e6, "ms"},
		"core.run_wn_ms":            {mean(t.runWNNS) / 1e6, "ms"},
		"core.candidate_ms":         {ratio(float64(p.CandidateTime)/1e6, runs), "ms"},
		"core.lcc_ms":               {ratio(float64(p.LCCTime)/1e6, runs), "ms"},
		"core.nlcc_ms":              {ratio(float64(p.NLCCTime)/1e6, runs), "ms"},
		"core.verify_ms":            {ratio(float64(p.VerifyTime)/1e6, runs), "ms"},
		"core.candidate_share":      {ratio(float64(p.CandidateTime), phaseNS), "ratio"},
		"core.messages":             {ratio(float64(p.TotalMessages()), runs), "count"},
		"core.lcc_iterations":       {ratio(float64(p.LCCIterations), runs), "count"},
		"core.tokens":               {ratio(float64(p.TokensInitiated), runs), "count"},
		"core.nlcc_cache_hit_ratio": {ratio(float64(p.CacheHits), float64(p.CacheHits+p.TokensInitiated)), "ratio"},
		"core.verify_expansions":    {ratio(float64(p.VerifyExpansions), runs), "count"},
		"core.compactions":          {ratio(float64(p.Compactions), runs), "count"},
		"graph.apply_delta_ms":      {ms("graph.ApplyDelta"), "ms"},
		"graph.rebuild_ratio":       {mean(t.rebuild), "ratio"},
		"graph.load_s":              {(mean(byName["graph.ReadEdgeList"]) + mean(byName["graph.RelabelByDegree"])) / 1e9, "s"},
		"wal.append_ms":             {ms("wal.Append"), "ms"},
		"wal.bytes_per_record":      {ratio(float64(ws.Bytes), float64(ws.Appends)), "B"},
		"wal.fsyncs":                {float64(ws.Fsyncs), "count"},
		"wal.open_ms":               {openMS, "ms"},
		"wal.replayed":              {float64(rec.Replayed), "count"},
		"wal.replay_ms_per_record":  {ratio(openMS, float64(rec.Replayed)), "ms"},
	}
	return &result{
		Workload: t.w.name, Seed: seed, Seconds: seconds, Trace: true,
		Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed,
		Metrics: m, Server: &sc, LayerSelfMS: layers, Levels: t.levels,
		TracedP50MS: median(handlerNS) / 1e6, FirstFailure: t.firstFailure, Spans: len(t.tr.spans),
	}
}
