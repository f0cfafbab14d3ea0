// Command kernelbench times the core constraint-checking kernels on a
// seeded R-MAT benchmark graph, sequential versus parallel (Config.Workers),
// plus the end-to-end δ=k…0 pipeline with search-space compaction on and
// off, the resource-governance overhead (ungoverned vs an always-charging
// budget tracker vs a byte-capped work-recycling cache forced to evict),
// the distributed engine's fault-tolerance overhead (perfect
// transport vs the sequence/ack/dedup path vs an injected fault schedule),
// the real-socket rank transport's overhead (in-memory FT mailboxes vs
// cross-rank envelopes framed over loopback TCP, clean and under injected
// socket faults, match counts cross-checked),
// the serving layer's cross-query caching (a cold query vs a warm
// isomorphic resubmission served from the result cache, plus a rerun that
// recycles walks through the shared NLCC store), and the live-ingest
// incremental maintenance path (a small delta re-matched via the
// locality-bounded restricted runs vs a full recompute, match counts and Rho
// cross-checked), and the kernel redundancy eliminations (symmetric-template
// counting with automorphism symmetry breaking and failure guards off vs on,
// expansion counters and match counts cross-checked), and the durable-ingest
// WAL (per-batch append cost under each sync policy, tail-replay vs
// checkpoint-bounded recovery time, the recovered graph cross-checked
// signature-identical to the live one), and writes a machine-readable
// report (BENCH_PR10.json by default).
//
// The report states the machine honestly: "cpus" and "gomaxprocs" record
// what the kernels actually had to work with, so a speedup near 1.0 on a
// single-core runner is expected and distinguishable from a regression.
// The compaction section records the per-level active-fraction trajectory,
// so a compaction speedup near 1.0 on a dense-active run (fractions near 1,
// no level below the threshold) is likewise expected. The governance and
// chaos sections cross-check that every mode counts identical matches —
// governance and fault tolerance trade time, never correctness — before
// reporting overhead.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	mrand "math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"approxmatch/internal/core"
	"approxmatch/internal/dist"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
	"approxmatch/internal/rmat"
	"approxmatch/internal/server"
	"approxmatch/internal/wal"
)

type phaseReport struct {
	Name         string  `json:"name"`
	SequentialMS float64 `json:"sequential_ms"`
	ParallelMS   float64 `json:"parallel_ms"`
	Speedup      float64 `json:"speedup"`
}

type levelReport struct {
	Dist           int     `json:"dist"`
	Prototypes     int     `json:"prototypes"`
	ActiveFraction float64 `json:"active_fraction"`
	Compacted      bool    `json:"compacted"`
}

type compactionReport struct {
	Threshold      float64       `json:"threshold"`
	OffMS          float64       `json:"off_ms"`
	OnMS           float64       `json:"on_ms"`
	Speedup        float64       `json:"speedup"`
	Compactions    int64         `json:"compactions"`
	BytesReclaimed int64         `json:"bytes_reclaimed"`
	MatchCount     int64         `json:"match_count"`
	Levels         []levelReport `json:"levels"`
}

// chaosReport compares the distributed engine's transports on the same
// query: the perfect in-memory transport (Faults nil), the fault-tolerant
// path with no injected faults (all-zero Faults — pure sequence/ack/dedup
// overhead), and a seeded drop+duplicate schedule (recovery cost). All
// three must count identical matches.
type chaosReport struct {
	Ranks         int     `json:"ranks"`
	PerfectMS     float64 `json:"perfect_ms"`
	FTMS          float64 `json:"ft_ms"`
	FTOverheadPct float64 `json:"ft_overhead_pct"`
	FaultedMS     float64 `json:"faulted_ms"`
	DropProb      float64 `json:"drop_prob"`
	DupProb       float64 `json:"dup_prob"`
	Dropped       int64   `json:"dropped"`
	Duplicated    int64   `json:"duplicated"`
	Retries       int64   `json:"retries"`
	Redeliveries  int64   `json:"redeliveries"`
	AcksSent      int64   `json:"acks_sent"`
	MatchCount    int64   `json:"match_count"`
}

// tcpReport compares the fault-tolerant pipeline with in-memory mailboxes
// against the same pipeline with every cross-rank envelope crossing a real
// loopback TCP socket through the wire codec, clean and under an injected
// socket-fault schedule. Match counts are cross-checked across all three
// modes before any time is reported; the socket counters come from the
// faulted run and pin that frames really crossed the kernel's TCP stack
// and that every fault class fired.
type tcpReport struct {
	Ranks            int     `json:"ranks"`
	InMemoryFTMS     float64 `json:"in_memory_ft_ms"`
	TCPCleanMS       float64 `json:"tcp_clean_ms"`
	TCPOverheadPct   float64 `json:"tcp_overhead_pct"`
	TCPFaultedMS     float64 `json:"tcp_faulted_ms"`
	ConnDropProb     float64 `json:"conn_drop_prob"`
	PartialWriteProb float64 `json:"partial_write_prob"`
	SockFrames       int64   `json:"sock_frames"`
	SockBytes        int64   `json:"sock_bytes"`
	SockDials        int64   `json:"sock_dials"`
	SockConnDrops    int64   `json:"sock_conn_drops"`
	SockPartialWr    int64   `json:"sock_partial_writes"`
	SockDelays       int64   `json:"sock_delays"`
	Retries          int64   `json:"retries"`
	MatchCount       int64   `json:"match_count"`
}

// governanceReport compares the same query ungoverned, under an
// active-but-generous budget tracker (every amortized probe charges the
// shared atomics but no cap ever fires — the pure cost of resource
// governance), and with the work-recycling cache byte-capped small enough to
// force LRU evictions (the recomputation cost of bounded memory). All three
// runs must count identical matches: governance trades time, never
// correctness.
type governanceReport struct {
	UngovernedMS   float64 `json:"ungoverned_ms"`
	GovernedMS     float64 `json:"governed_ms"`
	OverheadPct    float64 `json:"overhead_pct"`
	WorkCharged    int64   `json:"work_charged"`
	BytesCharged   int64   `json:"bytes_charged"`
	CacheCapBytes  int64   `json:"cache_cap_bytes"`
	CacheCappedMS  float64 `json:"cache_capped_ms"`
	CacheHits      int64   `json:"cache_hits"`
	CacheEvictions int64   `json:"cache_evictions"`
	MatchCount     int64   `json:"match_count"`
}

// cachingReport compares the serving path cold versus warm: the first
// /match on a fresh graph epoch runs the pipeline; an isomorphic
// resubmission must be served verbatim from the cross-query result cache
// (byte-identical body — checked — so its match counts trivially agree),
// and a rerun that misses the result cache but shares the NLCC store
// measures cross-query work recycling alone.
type cachingReport struct {
	ColdMS          float64 `json:"cold_ms"`
	WarmMS          float64 `json:"warm_ms"`
	Speedup         float64 `json:"speedup"`
	SharedRerunMS   float64 `json:"shared_nlcc_rerun_ms"`
	SharedNLCCHits  int64   `json:"shared_nlcc_hits"`
	ResultCacheHits int64   `json:"result_cache_hits"`
	MatchCount      int64   `json:"match_count"`
}

// redundancyCase compares one symmetric template with the kernel redundancy
// eliminations off (NoSymmetry + NoGuards — every match rediscovered
// |Aut(T)| times, exhausted verification subtrees re-explored) versus the
// default optimized kernels. Match counts are cross-checked before any time
// is reported — the eliminations trade work, never results — and
// expansion_reduction records the measured enumeration-expansion ratio,
// which approaches aut_order on clique templates.
type redundancyCase struct {
	Template            string  `json:"template"`
	AutOrder            int     `json:"aut_order"`
	BaselineMS          float64 `json:"baseline_ms"`
	OptimizedMS         float64 `json:"optimized_ms"`
	Speedup             float64 `json:"speedup"`
	BaselineExpansions  int64   `json:"baseline_expansions"`
	OptimizedExpansions int64   `json:"optimized_expansions"`
	ExpansionReduction  float64 `json:"expansion_reduction"`
	GuardsSet           int64   `json:"guards_set"`
	GuardHits           int64   `json:"guard_hits"`
	MatchCount          int64   `json:"match_count"`
	MatchesAgree        bool    `json:"matches_agree"`
}

// incrementalReport compares maintaining a query's result across a small
// mutation batch (core.RunIncrementalContext: two pipeline runs restricted to the
// dirty region) against recomputing from scratch on the mutated graph. The
// incremental result is cross-checked bit-identical (Rho and per-prototype
// match counts) before any time is reported; region_vertices records how
// much of the graph the restricted runs touched, which is exactly where the
// speedup comes from.
type incrementalReport struct {
	DeltaInserts     int     `json:"delta_inserts"`
	DeltaDeletes     int     `json:"delta_deletes"`
	DeltaRelabels    int     `json:"delta_relabels"`
	Radius           int     `json:"radius"`
	ChangedVertices  int     `json:"changed_vertices"`
	AffectedVertices int     `json:"affected_vertices"`
	RegionVertices   int     `json:"region_vertices"`
	GraphVertices    int     `json:"graph_vertices"`
	FullMS           float64 `json:"full_ms"`
	IncrementalMS    float64 `json:"incremental_ms"`
	Speedup          float64 `json:"speedup"`
	MatchCount       int64   `json:"match_count"`
	MatchesAgree     bool    `json:"matches_agree"`
}

type report struct {
	Scale       int               `json:"scale"`
	EdgeFactor  int               `json:"edge_factor"`
	Seed        int64             `json:"seed"`
	Vertices    int               `json:"vertices"`
	Edges       int               `json:"edges"`
	K           int               `json:"k"`
	Reps        int               `json:"reps"`
	Workers     int               `json:"workers"`
	CPUs        int               `json:"cpus"`
	GOMAXPROCS  int               `json:"gomaxprocs"`
	Phases      []phaseReport     `json:"phases"`
	Compaction  compactionReport  `json:"compaction"`
	Governance  governanceReport  `json:"governance"`
	Chaos       chaosReport       `json:"chaos"`
	TCP         tcpReport         `json:"tcp"`
	Caching     cachingReport     `json:"caching"`
	Incremental incrementalReport `json:"incremental"`
	Redundancy  []redundancyCase  `json:"redundancy"`
	Durability  durabilityReport  `json:"durability"`
}

// durabilityReport measures what the WAL costs and what recovery buys: the
// same precomputed batch sequence is appended under each sync policy
// (isolating the log's append+fsync cost from delta application), then the
// log is recovered twice — once replaying the whole tail, once bounded by a
// checkpoint. Before any recovery time is reported the recovered graph is
// cross-checked signature-identical (dist.GraphSignature) to the live graph
// the appends built — durability trades time, never state.
type durabilityReport struct {
	Batches              int     `json:"batches"`
	WALBytes             int64   `json:"wal_bytes"`
	AppendAlwaysMS       float64 `json:"append_always_ms"`
	AppendIntervalMS     float64 `json:"append_interval_ms"`
	AppendNoneMS         float64 `json:"append_none_ms"`
	ReplayRecoveryMS     float64 `json:"replay_recovery_ms"`
	ReplayRecords        int     `json:"replay_records"`
	CheckpointWriteMS    float64 `json:"checkpoint_write_ms"`
	CheckpointRecoveryMS float64 `json:"checkpoint_recovery_ms"`
	CheckpointReplayed   int     `json:"checkpoint_replayed"`
	SignatureAgree       bool    `json:"signature_agree"`
}

func main() {
	scale := flag.Int("scale", 13, "R-MAT scale (2^scale vertices)")
	edgefactor := flag.Int("edgefactor", 8, "R-MAT edges per vertex")
	seed := flag.Int64("seed", 42, "R-MAT seed")
	workers := flag.Int("workers", runtime.NumCPU(), "parallel worker count to compare against sequential")
	reps := flag.Int("reps", 3, "repetitions per measurement (best time kept)")
	k := flag.Int("k", 1, "edit distance for the pipeline phase")
	out := flag.String("out", "BENCH_PR10.json", "output JSON path")
	compactBelow := flag.Float64("compact-below", 0.5, "compaction threshold for the compaction on/off comparison")
	chaosRanks := flag.Int("chaos-ranks", 4, "distributed ranks for the fault-tolerance overhead comparison")
	flag.Parse()

	p := rmat.Graph500(*scale, *seed)
	p.EdgeFactor = *edgefactor
	g := rmat.Generate(p)
	tp := benchTemplate(g)
	fmt.Printf("graph: scale=%d |V|=%d |E|=%d  template: %v  workers: %d (cpus=%d)\n",
		*scale, g.NumVertices(), g.NumEdges(), tp, *workers, runtime.NumCPU())

	rep := report{
		Scale: *scale, EdgeFactor: *edgefactor, Seed: *seed,
		Vertices: g.NumVertices(), Edges: g.NumEdges(),
		K: *k, Reps: *reps, Workers: *workers,
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	measure := func(name string, run func(workers int)) {
		seq := best(*reps, func() { run(0) })
		par := best(*reps, func() { run(*workers) })
		ph := phaseReport{
			Name:         name,
			SequentialMS: ms(seq),
			ParallelMS:   ms(par),
			Speedup:      seq.Seconds() / par.Seconds(),
		}
		rep.Phases = append(rep.Phases, ph)
		fmt.Printf("%-16s seq %8.1fms  par %8.1fms  speedup %.2fx\n",
			ph.Name, ph.SequentialMS, ph.ParallelMS, ph.Speedup)
	}

	measure("candidate-set", func(w int) {
		var m core.Metrics
		core.MaxCandidateSetWorkers(g, tp, w, &m)
	})

	var m core.Metrics
	level := core.MaxCandidateSetWorkers(g, tp, 0, &m)
	measure("search", func(w int) {
		var m core.Metrics
		core.SearchOn(context.Background(), level, tp, nil, nil, false, w, &m)
	})

	var seqCount, parCount int64
	measure("pipeline", func(w int) {
		cfg := core.DefaultConfig(*k)
		cfg.Workers = w
		cfg.CountMatches = true
		res, err := core.Run(g, tp, cfg)
		if err != nil {
			log.Fatal(err)
		}
		total := int64(0)
		for _, sol := range res.Solutions {
			total += sol.MatchCount
		}
		if w == 0 {
			seqCount = total
		} else {
			parCount = total
		}
	})
	if seqCount != parCount {
		log.Fatalf("result mismatch: sequential counted %d matches, parallel %d", seqCount, parCount)
	}
	fmt.Printf("pipeline match counts agree: %d\n", seqCount)

	rep.Compaction = benchCompaction(g, tp, *k, *reps, *compactBelow)
	rep.Governance = benchGovernance(g, tp, *k, *reps)
	rep.Chaos = benchChaos(g, tp, *k, *reps, *chaosRanks)
	rep.TCP = benchTCP(g, tp, *k, *reps, *chaosRanks)
	rep.Caching = benchCaching(g, tp, *k, *reps, seqCount)
	rep.Incremental = benchIncremental(g, tp, *k, *reps)
	rep.Redundancy = benchRedundancy(g, *reps)
	rep.Durability = benchDurability(g, *reps)

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

// benchCompaction times the full δ=k…0 pipeline with search-space
// compaction off and on (best of reps each), records the per-level
// active-fraction trajectory from the compaction-on run, and cross-checks
// that both runs count the same matches.
func benchCompaction(g *graph.Graph, tp *pattern.Template, k, reps int, threshold float64) compactionReport {
	run := func(th float64) *core.Result {
		cfg := core.DefaultConfig(k)
		cfg.CountMatches = true
		cfg.CompactBelow = th
		res, err := core.Run(g, tp, cfg)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	total := func(res *core.Result) int64 {
		var n int64
		for _, sol := range res.Solutions {
			n += sol.MatchCount
		}
		return n
	}

	var offRes, onRes *core.Result
	off := best(reps, func() { offRes = run(0) })
	on := best(reps, func() { onRes = run(threshold) })
	if total(offRes) != total(onRes) {
		log.Fatalf("compaction changed results: off counted %d matches, on %d",
			total(offRes), total(onRes))
	}

	cr := compactionReport{
		Threshold:      threshold,
		OffMS:          ms(off),
		OnMS:           ms(on),
		Speedup:        off.Seconds() / on.Seconds(),
		Compactions:    onRes.Metrics.Compactions,
		BytesReclaimed: onRes.Metrics.CompactionBytesReclaimed,
		MatchCount:     total(onRes),
	}
	for _, l := range onRes.Levels {
		cr.Levels = append(cr.Levels, levelReport{
			Dist:           l.Dist,
			Prototypes:     l.Prototypes,
			ActiveFraction: l.ActiveFraction,
			Compacted:      l.Compacted,
		})
		fmt.Printf("  δ=%d: %d prototypes, active fraction %.3f, compacted=%v\n",
			l.Dist, l.Prototypes, l.ActiveFraction, l.Compacted)
	}
	fmt.Printf("compaction (<%.2f): off %8.1fms  on %8.1fms  speedup %.2fx  views=%d  reclaimed=%dB\n",
		threshold, cr.OffMS, cr.OnMS, cr.Speedup, cr.Compactions, cr.BytesReclaimed)
	return cr
}

// benchGovernance times the full pipeline ungoverned, then with an active
// budget tracker whose caps are generous enough to never fire (so the
// measured delta is the per-probe charging overhead, which rides the
// existing amortized cancellation probes and should be near zero), then with
// the work-recycling cache capped to roughly one and a half per-vertex bit
// vectors so every level churns through LRU evictions. Match counts are
// cross-checked across all three runs.
func benchGovernance(g *graph.Graph, tp *pattern.Template, k, reps int) governanceReport {
	run := func(ctx context.Context, cacheBytes int64) *core.Result {
		cfg := core.DefaultConfig(k)
		cfg.CountMatches = true
		cfg.CacheBytes = cacheBytes
		res, err := core.RunContext(ctx, g, tp, cfg)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	total := func(res *core.Result) int64 {
		var n int64
		for _, sol := range res.Solutions {
			n += sol.MatchCount
		}
		return n
	}

	var plainRes, govRes, cappedRes *core.Result
	plain := best(reps, func() { plainRes = run(context.Background(), 0) })

	var tracker *core.BudgetTracker
	gov := best(reps, func() {
		t := core.NewBudgetTracker(core.Budget{MaxWork: 1 << 62, MaxBytes: 1 << 62})
		govRes = run(core.WithBudgetTracker(context.Background(), t), 0)
		tracker = t
	})

	// One and a half per-vertex bit vectors: big enough to hold a set, too
	// small to hold two, so the recycling cache evicts on every insertion.
	capBytes := (int64(g.NumVertices())/8+64)*3/2 + 1
	capped := best(reps, func() { cappedRes = run(context.Background(), capBytes) })

	if total(plainRes) != total(govRes) || total(plainRes) != total(cappedRes) {
		log.Fatalf("governance changed results: ungoverned counted %d matches, governed %d, cache-capped %d",
			total(plainRes), total(govRes), total(cappedRes))
	}

	gr := governanceReport{
		UngovernedMS:   ms(plain),
		GovernedMS:     ms(gov),
		OverheadPct:    (gov.Seconds()/plain.Seconds() - 1) * 100,
		WorkCharged:    tracker.WorkUsed(),
		BytesCharged:   tracker.BytesUsed(),
		CacheCapBytes:  capBytes,
		CacheCappedMS:  ms(capped),
		CacheHits:      cappedRes.Metrics.CacheHits,
		CacheEvictions: cappedRes.Metrics.CacheEvictions,
		MatchCount:     total(plainRes),
	}
	fmt.Printf("governance: ungoverned %8.1fms  governed %8.1fms (overhead %+.1f%%)  work charged %d  bytes charged %d\n",
		gr.UngovernedMS, gr.GovernedMS, gr.OverheadPct, gr.WorkCharged, gr.BytesCharged)
	fmt.Printf("  cache capped at %dB: %8.1fms  hits=%d evictions=%d  matches agree: %d\n",
		gr.CacheCapBytes, gr.CacheCappedMS, gr.CacheHits, gr.CacheEvictions, gr.MatchCount)
	return gr
}

// benchChaos times the distributed pipeline under the three transport modes
// (perfect / fault-tolerant-no-faults / faulted) and reports the overhead of
// the at-least-once machinery plus the recovery cost of a seeded fault
// schedule. Each run builds a fresh engine — rank ownership mutates during a
// run, so engines are single-use.
func benchChaos(g *graph.Graph, tp *pattern.Template, k, reps, ranks int) chaosReport {
	faulted := &dist.Faults{
		Seed:          42,
		Drop:          0.02,
		Duplicate:     0.02,
		RetryInterval: 200 * time.Microsecond,
	}
	var lastEngine *dist.Engine
	run := func(f *dist.Faults) int64 {
		e := dist.NewEngine(g, dist.Config{Ranks: ranks, Faults: f})
		opts := dist.DefaultOptions(k)
		opts.CountMatches = true
		res, err := dist.Run(e, tp, opts)
		if err != nil {
			log.Fatal(err)
		}
		lastEngine = e
		var n int64
		for _, sol := range res.Solutions {
			n += sol.MatchCount
		}
		return n
	}

	var perfectN, ftN, faultedN int64
	perfect := best(reps, func() { perfectN = run(nil) })
	ft := best(reps, func() { ftN = run(&dist.Faults{}) })
	fa := best(reps, func() { faultedN = run(faulted) })
	if perfectN != ftN || perfectN != faultedN {
		log.Fatalf("transport changed results: perfect counted %d matches, ft %d, faulted %d",
			perfectN, ftN, faultedN)
	}

	fs := &lastEngine.Stats.Faults
	cr := chaosReport{
		Ranks:         ranks,
		PerfectMS:     ms(perfect),
		FTMS:          ms(ft),
		FTOverheadPct: (ft.Seconds()/perfect.Seconds() - 1) * 100,
		FaultedMS:     ms(fa),
		DropProb:      faulted.Drop,
		DupProb:       faulted.Duplicate,
		Dropped:       fs.Dropped.Load(),
		Duplicated:    fs.Duplicated.Load(),
		Retries:       fs.Retries.Load(),
		Redeliveries:  fs.Redeliveries.Load(),
		AcksSent:      fs.AcksSent.Load(),
		MatchCount:    perfectN,
	}
	fmt.Printf("chaos (ranks=%d): perfect %8.1fms  ft %8.1fms (overhead %+.1f%%)  faulted %8.1fms\n",
		ranks, cr.PerfectMS, cr.FTMS, cr.FTOverheadPct, cr.FaultedMS)
	fmt.Printf("  faulted run: dropped=%d duplicated=%d retries=%d redeliveries=%d acks=%d  matches agree: %d\n",
		cr.Dropped, cr.Duplicated, cr.Retries, cr.Redeliveries, cr.AcksSent, cr.MatchCount)
	return cr
}

// benchTCP times the fault-tolerant pipeline over the real-socket rank
// transport: in-memory FT mailboxes (the benchChaos ft mode) against TCP
// with clean sockets (pure wire-codec plus kernel-stack cost) and TCP under
// an injected socket-fault schedule (the recovery cost of torn connections
// and partial writes). Engines owning sockets are closed after each run.
func benchTCP(g *graph.Graph, tp *pattern.Template, k, reps, ranks int) tcpReport {
	sf := &dist.SocketFaults{
		Seed:         42,
		ConnDrop:     0.01,
		PartialWrite: 0.01,
	}
	var lastEngine *dist.Engine
	run := func(tcp *dist.TCPOptions) int64 {
		e := dist.NewEngine(g, dist.Config{
			Ranks: ranks,
			TCP:   tcp,
			Faults: &dist.Faults{
				RetryInterval: 200 * time.Microsecond,
			},
		})
		defer e.Close()
		opts := dist.DefaultOptions(k)
		opts.CountMatches = true
		res, err := dist.Run(e, tp, opts)
		if err != nil {
			log.Fatal(err)
		}
		lastEngine = e
		var n int64
		for _, sol := range res.Solutions {
			n += sol.MatchCount
		}
		return n
	}

	var memN, cleanN, faultedN int64
	mem := best(reps, func() { memN = run(nil) })
	clean := best(reps, func() { cleanN = run(&dist.TCPOptions{}) })
	faulted := best(reps, func() { faultedN = run(&dist.TCPOptions{SocketFaults: sf}) })
	if memN != cleanN || memN != faultedN {
		log.Fatalf("transport changed results: in-memory counted %d matches, tcp %d, tcp-faulted %d",
			memN, cleanN, faultedN)
	}

	fs := &lastEngine.Stats.Faults
	tr := tcpReport{
		Ranks:            ranks,
		InMemoryFTMS:     ms(mem),
		TCPCleanMS:       ms(clean),
		TCPOverheadPct:   (clean.Seconds()/mem.Seconds() - 1) * 100,
		TCPFaultedMS:     ms(faulted),
		ConnDropProb:     sf.ConnDrop,
		PartialWriteProb: sf.PartialWrite,
		SockFrames:       fs.SockFrames.Load(),
		SockBytes:        fs.SockBytes.Load(),
		SockDials:        fs.SockDials.Load(),
		SockConnDrops:    fs.SockConnDrops.Load(),
		SockPartialWr:    fs.SockPartialWrites.Load(),
		SockDelays:       fs.SockDelays.Load(),
		Retries:          fs.Retries.Load(),
		MatchCount:       memN,
	}
	fmt.Printf("tcp (ranks=%d): in-memory ft %8.1fms  tcp %8.1fms (overhead %+.1f%%)  tcp-faulted %8.1fms\n",
		ranks, tr.InMemoryFTMS, tr.TCPCleanMS, tr.TCPOverheadPct, tr.TCPFaultedMS)
	fmt.Printf("  faulted run: frames=%d bytes=%d dials=%d conndrops=%d partialwrites=%d retries=%d  matches agree: %d\n",
		tr.SockFrames, tr.SockBytes, tr.SockDials, tr.SockConnDrops, tr.SockPartialWr, tr.Retries, tr.MatchCount)
	return tr
}

// benchCaching drives the real HTTP serving path (handler invoked in
// process) to time a cold query against a warm isomorphic resubmission,
// cross-checking that the warm body is byte-identical to the cold one and
// that its match counts agree with the directly-computed expected total.
// A second server with the result cache off isolates the shared NLCC
// store's cross-query work recycling.
func benchCaching(g *graph.Graph, tp *pattern.Template, k, reps int, expected int64) cachingReport {
	var buf bytes.Buffer
	if err := pattern.Write(&buf, tp); err != nil {
		log.Fatal(err)
	}
	baseText := buf.String()
	isoText := isomorphicText(tp)

	post := func(h http.Handler, text string) []byte {
		body, err := json.Marshal(map[string]any{"template": text, "k": k, "count": true})
		if err != nil {
			log.Fatal(err)
		}
		req := httptest.NewRequest("POST", "/match", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			log.Fatalf("caching bench: /match returned %d: %s", w.Code, w.Body.String())
		}
		return w.Body.Bytes()
	}
	counts := func(body []byte) int64 {
		var resp server.MatchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			log.Fatal(err)
		}
		var n int64
		for _, p := range resp.Prototypes {
			if p.MatchCount != nil {
				n += *p.MatchCount
			}
		}
		return n
	}
	scrape := func(h http.Handler, metric string) int64 {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
		for _, line := range strings.Split(w.Body.String(), "\n") {
			if v, ok := strings.CutPrefix(line, metric+" "); ok {
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					log.Fatal(err)
				}
				return n
			}
		}
		log.Fatalf("caching bench: metric %s not exposed", metric)
		return 0
	}

	s := server.NewWithConfig(g, server.Config{ResultCacheBytes: 64 << 20, SharedNLCC: true, MaxConcurrent: 1})
	h := s.Handler()
	var coldBody, warmBody []byte
	// BumpEpoch restores cold-start behavior between reps — the same
	// invalidation an operator triggers after swapping the graph.
	cold := best(reps, func() { s.BumpEpoch(); coldBody = post(h, baseText) })
	warm := best(reps, func() { warmBody = post(h, isoText) })
	if !bytes.Equal(coldBody, warmBody) {
		log.Fatalf("caching bench: warm body differs from cold\ncold: %s\nwarm: %s", coldBody, warmBody)
	}
	if n := counts(coldBody); n != expected {
		log.Fatalf("caching bench: served %d matches, pipeline counted %d", n, expected)
	}

	s2 := server.NewWithConfig(g, server.Config{SharedNLCC: true, MaxConcurrent: 1})
	h2 := s2.Handler()
	if n := counts(post(h2, baseText)); n != expected { // populate the shared store
		log.Fatalf("caching bench: shared-store cold run counted %d matches, want %d", n, expected)
	}
	var rerunBody []byte
	rerun := best(reps, func() { rerunBody = post(h2, isoText) })
	if n := counts(rerunBody); n != expected {
		log.Fatalf("caching bench: shared-store rerun counted %d matches, want %d", n, expected)
	}

	cr := cachingReport{
		ColdMS:          ms(cold),
		WarmMS:          ms(warm),
		Speedup:         cold.Seconds() / warm.Seconds(),
		SharedRerunMS:   ms(rerun),
		SharedNLCCHits:  scrape(h2, "amatchd_shared_nlcc_hits_total"),
		ResultCacheHits: scrape(h, "amatchd_result_cache_hits_total"),
		MatchCount:      expected,
	}
	fmt.Printf("caching: cold %8.1fms  warm %8.3fms  speedup %.0fx  shared-nlcc rerun %8.1fms (hits=%d)  matches agree: %d\n",
		cr.ColdMS, cr.WarmMS, cr.Speedup, cr.SharedRerunMS, cr.SharedNLCCHits, cr.MatchCount)
	return cr
}

// benchIncremental times incremental maintenance of the benchmark query
// across a deterministic small mutation batch against a from-scratch run on
// the mutated graph. The batch edits a quiet region — low-degree vertices
// whose locality balls are small — which is the workload the incremental
// path exists for: a live stream touching a bounded neighborhood of a huge
// graph. The merged result is verified bit-identical to the from-scratch run
// before any timing is reported.
func benchIncremental(g *graph.Graph, tp *pattern.Template, k, reps int) incrementalReport {
	cfg := core.DefaultConfig(k)
	cfg.CountMatches = true
	prev, err := core.Run(g, tp, cfg)
	if err != nil {
		log.Fatal(err)
	}

	d := quietDelta(g)
	ng, changed, err := graph.ApplyDelta(g, d)
	if err != nil {
		log.Fatal(err)
	}

	var fullRes *core.Result
	full := best(reps, func() {
		fullRes, err = core.Run(ng, tp, cfg)
		if err != nil {
			log.Fatal(err)
		}
	})
	var incRes *core.Result
	var stats *core.DeltaStats
	inc := best(reps, func() {
		incRes, stats, err = core.RunIncrementalContext(context.Background(), prev, ng, changed, cfg)
		if err != nil {
			log.Fatal(err)
		}
	})

	// Cross-check before reporting: the incremental result must be
	// bit-identical to the from-scratch run, not merely close.
	if !incRes.Rho.Equal(fullRes.Rho) {
		log.Fatal("incremental bench: Rho differs from from-scratch run")
	}
	var total int64
	for pi := range fullRes.Solutions {
		fi, ii := fullRes.Solutions[pi].MatchCount, incRes.Solutions[pi].MatchCount
		if fi != ii {
			log.Fatalf("incremental bench: prototype %d counted %d matches incrementally, %d from scratch", pi, ii, fi)
		}
		total += fi
	}

	ir := incrementalReport{
		DeltaInserts:     len(d.Insert),
		DeltaDeletes:     len(d.Delete),
		DeltaRelabels:    len(d.Relabels),
		Radius:           stats.Radius,
		ChangedVertices:  stats.ChangedVertices,
		AffectedVertices: stats.AffectedVertices,
		RegionVertices:   stats.RegionVertices,
		GraphVertices:    g.NumVertices(),
		FullMS:           ms(full),
		IncrementalMS:    ms(inc),
		Speedup:          full.Seconds() / inc.Seconds(),
		MatchCount:       total,
		// The cross-checks above fatal on divergence, so a written report
		// always carries true — the field lets smoke jobs grep for it.
		MatchesAgree: true,
	}
	fmt.Printf("incremental (+%d/-%d edges, %d relabels): full %8.1fms  incremental %8.1fms  speedup %.2fx  region %d/%d vertices (r=%d)  matches agree: %d\n",
		ir.DeltaInserts, ir.DeltaDeletes, ir.DeltaRelabels, ir.FullMS, ir.IncrementalMS,
		ir.Speedup, ir.RegionVertices, ir.GraphVertices, ir.Radius, ir.MatchCount)
	return ir
}

// quietDelta builds a deterministic small mutation batch over the graph's
// quiet periphery — low-degree vertices whose 4-hop neighborhoods are small —
// where a live stream's edits stay local. Every vertex the batch touches
// (both endpoints of every inserted AND deleted edge, every relabeled vertex)
// is screened for a small locality ball; one unscreened hub endpoint would
// inflate the dirty region to a large fraction of the graph and erase the
// locality the incremental path exploits.
func quietDelta(g *graph.Graph) *graph.Delta {
	n := g.NumVertices()
	ballCap := n / 64
	if ballCap < 16 {
		ballCap = 16
	}
	type cand struct{ v, ball int }
	var cands []cand
	for v := 0; v < n && len(cands) < 512; v++ {
		if g.Degree(graph.VertexID(v)) > 2 {
			continue
		}
		if b := ballSize(g, graph.VertexID(v), 4); b <= ballCap {
			cands = append(cands, cand{v, b})
		}
	}
	if len(cands) < 2 {
		// Degenerate graph shape (no quiet periphery): fall back to the
		// lowest-numbered vertices regardless of ball size.
		cands = cands[:0]
		for v := 0; v < n && len(cands) < 16; v++ {
			cands = append(cands, cand{v, ballSize(g, graph.VertexID(v), 4)})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].ball != cands[j].ball {
			return cands[i].ball < cands[j].ball
		}
		return cands[i].v < cands[j].v
	})
	db := graph.NewDeltaBuilder()
	// Delete an edge whose two endpoints are both screened-quiet (a dyad or
	// chain link in a small component). The quietest candidates above are
	// mostly isolated, so this scans the whole graph for non-isolated quiet
	// vertices separately.
	quiet := make(map[graph.VertexID]bool)
	for v := 0; v < n && len(quiet) < 256; v++ {
		vid := graph.VertexID(v)
		if deg := g.Degree(vid); deg >= 1 && deg <= 2 && ballSize(g, vid, 4) <= ballCap {
			quiet[vid] = true
		}
	}
	del := 0
	for v := 0; v < n && del == 0; v++ {
		vid := graph.VertexID(v)
		if !quiet[vid] {
			continue
		}
		for _, w := range g.Neighbors(vid) {
			if w > vid && quiet[w] {
				db.DeleteEdge(vid, w)
				del++
				break
			}
		}
	}
	if len(cands) > 16 {
		cands = cands[:16]
	}
	inserted := 0
	for i := 0; i+1 < len(cands) && inserted < 3; i++ {
		u, w := graph.VertexID(cands[i].v), graph.VertexID(cands[i+1].v)
		if u != w && !g.HasEdge(u, w) {
			db.InsertEdge(u, w)
			inserted++
		}
	}
	db.RelabelVertex(graph.VertexID(cands[0].v), g.Label(graph.VertexID(cands[len(cands)-1].v)))
	if len(cands) > 1 {
		db.RelabelVertex(graph.VertexID(cands[1].v), g.Label(graph.VertexID(cands[0].v)))
	}
	return db.Delta()
}

// benchDurability precomputes a valid batch sequence (toggling absent
// edges and relabeling random vertices, applied off to the side so the
// timers see only the log), appends it under each sync policy, and times
// recovery with and without a checkpoint bounding the replay. The
// recovered graph must be signature-identical to the one the batches
// built; divergence is fatal, not reported.
func benchDurability(g *graph.Graph, reps int) durabilityReport {
	const batches = 64
	rng := mrand.New(mrand.NewSource(7))
	n := g.NumVertices()

	// Precompute deltas and the final graph once; appends are then pure
	// log work.
	deltas := make([]*graph.Delta, 0, batches)
	cur := g
	var toggled [][2]graph.VertexID
	for i := 0; i < batches; i++ {
		db := graph.NewDeltaBuilder()
		if len(toggled) > 0 && rng.Intn(2) == 0 {
			e := toggled[len(toggled)-1]
			toggled = toggled[:len(toggled)-1]
			db.DeleteEdge(e[0], e[1])
		} else {
			for {
				u, v := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
				if u != v && !cur.HasEdge(u, v) {
					db.InsertEdge(u, v)
					toggled = append(toggled, [2]graph.VertexID{u, v})
					break
				}
			}
		}
		db.RelabelVertex(graph.VertexID(rng.Intn(n)), cur.Label(graph.VertexID(rng.Intn(n))))
		d := db.Delta()
		ng, _, err := graph.ApplyDelta(cur, d)
		if err != nil {
			log.Fatalf("durability: batch %d invalid: %v", i, err)
		}
		deltas = append(deltas, d)
		cur = ng
	}
	wantSig := dist.GraphSignature(cur)

	dr := durabilityReport{Batches: batches}
	appendAll := func(policy wal.SyncPolicy) (string, *wal.Log) {
		dir, err := os.MkdirTemp("", "walbench")
		if err != nil {
			log.Fatal(err)
		}
		l, _, err := wal.Open(wal.Options{Dir: dir, Sync: policy}, g)
		if err != nil {
			log.Fatal(err)
		}
		for i, d := range deltas {
			if err := l.Append(uint64(i+1), d); err != nil {
				log.Fatalf("durability: append %d: %v", i, err)
			}
		}
		return dir, l
	}
	timeAppends := func(policy wal.SyncPolicy) float64 {
		t := best(reps, func() {
			dir, l := appendAll(policy)
			l.Close()
			os.RemoveAll(dir)
		})
		return ms(t)
	}
	dr.AppendAlwaysMS = timeAppends(wal.SyncAlways)
	dr.AppendIntervalMS = timeAppends(wal.SyncInterval)
	dr.AppendNoneMS = timeAppends(wal.SyncNone)

	// Recovery, tail replay: rebuild the log once more (always-sync, the
	// durable configuration) and reopen it.
	dir, l := appendAll(wal.SyncAlways)
	defer os.RemoveAll(dir)
	dr.WALBytes = l.Stats().Bytes
	if err := l.Close(); err != nil {
		log.Fatal(err)
	}
	l2, rec, err := wal.Open(wal.Options{Dir: dir}, g)
	if err != nil {
		log.Fatalf("durability: tail recovery: %v", err)
	}
	if got := dist.GraphSignature(rec.Graph); got != wantSig || rec.Epoch != batches {
		log.Fatalf("durability: tail recovery diverged: epoch %d sig %x, want %d/%x",
			rec.Epoch, got, batches, wantSig)
	}
	dr.ReplayRecoveryMS = ms(rec.Elapsed)
	dr.ReplayRecords = rec.Replayed

	// Checkpoint, then recovery bounded by it.
	ckptStart := time.Now()
	if err := l2.Checkpoint(cur, batches); err != nil {
		log.Fatalf("durability: checkpoint: %v", err)
	}
	dr.CheckpointWriteMS = ms(time.Since(ckptStart))
	if err := l2.Close(); err != nil {
		log.Fatal(err)
	}
	_, rec2, err := wal.Open(wal.Options{Dir: dir}, g)
	if err != nil {
		log.Fatalf("durability: checkpoint recovery: %v", err)
	}
	if got := dist.GraphSignature(rec2.Graph); got != wantSig || rec2.Epoch != batches || !rec2.FromCheckpoint {
		log.Fatalf("durability: checkpoint recovery diverged: %+v sig %x, want epoch %d from checkpoint, sig %x",
			rec2, got, batches, wantSig)
	}
	dr.CheckpointRecoveryMS = ms(rec2.Elapsed)
	dr.CheckpointReplayed = rec2.Replayed
	dr.SignatureAgree = true

	fmt.Printf("durability: %d batches  append always %8.1fms  interval %8.1fms  none %8.1fms\n",
		batches, dr.AppendAlwaysMS, dr.AppendIntervalMS, dr.AppendNoneMS)
	fmt.Printf("durability: recovery tail-replay %8.1fms (%d records)  checkpointed %8.1fms (%d records)  signatures agree\n",
		dr.ReplayRecoveryMS, dr.ReplayRecords, dr.CheckpointRecoveryMS, dr.CheckpointReplayed)
	return dr
}

// ballSize returns |ball(v, radius)| by BFS.
func ballSize(g *graph.Graph, v graph.VertexID, radius int) int {
	dist := map[graph.VertexID]int{v: 0}
	queue := []graph.VertexID{v}
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		if dist[u] >= radius {
			continue
		}
		for _, w := range g.Neighbors(u) {
			if _, seen := dist[w]; !seen {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return len(dist)
}

// isomorphicText renders tp under a rotated vertex numbering with flipped
// edge endpoints — a client resubmitting "the same" template differently.
func isomorphicText(tp *pattern.Template) string {
	n := tp.NumVertices()
	perm := make([]int, n)
	for q := 0; q < n; q++ {
		perm[q] = (q + 1) % n
	}
	labels := make([]pattern.Label, n)
	for q := 0; q < n; q++ {
		labels[perm[q]] = tp.Label(q)
	}
	edges := make([]pattern.Edge, tp.NumEdges())
	mand := make([]bool, tp.NumEdges())
	var elabels []pattern.Label
	if tp.HasEdgeLabels() {
		elabels = make([]pattern.Label, tp.NumEdges())
	}
	for i, e := range tp.Edges() {
		edges[len(edges)-1-i] = pattern.Edge{I: perm[e.J], J: perm[e.I]}
		mand[len(edges)-1-i] = tp.Mandatory(i)
		if elabels != nil {
			elabels[len(edges)-1-i] = tp.EdgeLabel(i)
		}
	}
	iso, err := pattern.NewEdgeLabeled(labels, edges, elabels, mand)
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pattern.Write(&buf, iso); err != nil {
		log.Fatal(err)
	}
	return buf.String()
}

// benchRedundancy counts two symmetric templates over the modal label —
// triangle (|Aut| = 6) and 4-clique (|Aut| = 24) — with the redundancy
// eliminations fully off (NoSymmetry + NoGuards) and fully on, cross-checks
// the counts, and reports times, enumeration-expansion counters and guard
// activity. The clique templates are where symmetry breaking bites hardest:
// the restricted enumeration explores ≈1/|Aut| of the baseline's expansions.
func benchRedundancy(g *graph.Graph, reps int) []redundancyCase {
	a := cliqueLabel(g)
	cases := []struct {
		name string
		tp   *pattern.Template
	}{
		{"triangle", pattern.MustNew([]pattern.Label{a, a, a},
			[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}})},
		{"4-clique", pattern.MustNew([]pattern.Label{a, a, a, a},
			[]pattern.Edge{{I: 0, J: 1}, {I: 0, J: 2}, {I: 0, J: 3}, {I: 1, J: 2}, {I: 1, J: 3}, {I: 2, J: 3}})},
	}
	var out []redundancyCase
	for _, c := range cases {
		run := func(off bool) *core.Result {
			cfg := core.DefaultConfig(0)
			cfg.CountMatches = true
			cfg.NoSymmetry = off
			cfg.NoGuards = off
			res, err := core.Run(g, c.tp, cfg)
			if err != nil {
				log.Fatal(err)
			}
			return res
		}
		var baseRes, optRes *core.Result
		base := best(reps, func() { baseRes = run(true) })
		opt := best(reps, func() { optRes = run(false) })
		if baseRes.Solutions[0].MatchCount != optRes.Solutions[0].MatchCount {
			log.Fatalf("redundancy bench (%s): baseline counted %d matches, optimized %d",
				c.name, baseRes.Solutions[0].MatchCount, optRes.Solutions[0].MatchCount)
		}
		rc := redundancyCase{
			Template:            c.name,
			AutOrder:            len(pattern.Automorphisms(c.tp)),
			BaselineMS:          ms(base),
			OptimizedMS:         ms(opt),
			Speedup:             base.Seconds() / opt.Seconds(),
			BaselineExpansions:  baseRes.Metrics.EnumExpansions,
			OptimizedExpansions: optRes.Metrics.EnumExpansions,
			GuardsSet:           optRes.Metrics.GuardsSet,
			GuardHits:           optRes.Metrics.GuardHits,
			MatchCount:          optRes.Solutions[0].MatchCount,
			// The cross-check above fatals on divergence, so a written
			// report always carries true — smoke jobs grep for it.
			MatchesAgree: true,
		}
		if rc.OptimizedExpansions > 0 {
			rc.ExpansionReduction = float64(rc.BaselineExpansions) / float64(rc.OptimizedExpansions)
		}
		out = append(out, rc)
		fmt.Printf("redundancy (%s, |Aut|=%d): off %8.1fms  on %8.1fms  speedup %.2fx  expansions %d -> %d (%.1fx)  guards set=%d hits=%d  matches agree: %d\n",
			rc.Template, rc.AutOrder, rc.BaselineMS, rc.OptimizedMS, rc.Speedup,
			rc.BaselineExpansions, rc.OptimizedExpansions, rc.ExpansionReduction,
			rc.GuardsSet, rc.GuardHits, rc.MatchCount)
	}
	return out
}

// cliqueLabel returns the label with the most intra-label edges (both
// endpoints carrying it) — the class where mono-label cliques live. The
// benchmark graph's labels are degree buckets, so the modal *vertex* label
// is the degree-1 bucket, which cannot form a triangle at all.
func cliqueLabel(g *graph.Graph) pattern.Label {
	intra := make(map[pattern.Label]int64)
	for v := 0; v < g.NumVertices(); v++ {
		vid := graph.VertexID(v)
		l := pattern.Label(g.Label(vid))
		for _, w := range g.Neighbors(vid) {
			if w > vid && pattern.Label(g.Label(w)) == l {
				intra[l]++
			}
		}
	}
	bestL, bestN := pattern.Label(0), int64(-1)
	for l, n := range intra {
		if n > bestN || (n == bestN && l < bestL) {
			bestL, bestN = l, n
		}
	}
	return bestL
}

// modalLabels returns the two labels that appear most often on edge
// endpoints (isolated-vertex labels never survive the candidate set).
func modalLabels(g *graph.Graph) (pattern.Label, pattern.Label) {
	freq := make(map[pattern.Label]int64)
	for v := 0; v < g.NumVertices(); v++ {
		vid := graph.VertexID(v)
		if len(g.Neighbors(vid)) > 0 {
			freq[g.Label(vid)]++
		}
	}
	type lf struct {
		l pattern.Label
		n int64
	}
	var ranked []lf
	for l, n := range freq {
		ranked = append(ranked, lf{l, n})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].n != ranked[j].n {
			return ranked[i].n > ranked[j].n
		}
		return ranked[i].l < ranked[j].l
	})
	a, b := ranked[0].l, ranked[0].l
	if len(ranked) > 1 {
		b = ranked[1].l
	}
	return a, b
}

// benchTemplate builds a triangle over the two modal labels, so the
// benchmark exercises the kernels on the densest candidate classes instead
// of a vacuous label mix.
func benchTemplate(g *graph.Graph) *pattern.Template {
	a, b := modalLabels(g)
	return pattern.MustNew([]pattern.Label{a, b, a},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}})
}

func best(reps int, f func()) time.Duration {
	bestD := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); d < bestD {
			bestD = d
		}
	}
	return bestD
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
