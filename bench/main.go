// Command bench is the repository's benchmark: it builds and spawns a real
// cmd/amatchd, drives it over loopback from one process, checks every
// response against an in-process sequential reference and prints every
// metric by name and unit. See README.md for the metric, layer and
// interaction tables and BENCHMARK.json (at the repository root) for the
// regression bounds.
//
//	go -C bench run .                          all four workloads, end to end
//	go -C bench run . -trace 1                 in-process traced run, per-layer metrics
//	go -C bench run . -repeat 5 -out new.json  noise floor: medians, quartiles, spread
//	go -C bench run . -compare old.json new.json
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1   (the driver's form)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

type metricDef struct {
	name, unit, better string
}

// The metric tables. BENCHMARK.json lists the same names (a test holds the
// two together) and adds each end-to-end metric's regression bound.
var endToEnd = []metricDef{
	{"query_p50_ms", "ms", "lower"},
	{"queries_per_s", "1/s", "higher"},
	{"ingest_p50_ms", "ms", "lower"},
	{"recover_s", "s", "lower"},
	{"setup_s", "s", "lower"},
}

var perLayer = []metricDef{
	{"server.handler_ms", "ms", "lower"},
	{"server.self_ms", "ms", "lower"},
	{"server.unattributed_ratio", "ratio", "lower"},
	{"server.pipeline_share", "ratio", "lower"},
	{"server.cache_hit_ratio", "ratio", "higher"},
	{"server.coalesced", "count", "higher"},
	{"server.shed", "count", "lower"},
	{"pattern.parse_us", "us", "lower"},
	{"pattern.canonical_us", "us", "lower"},
	{"prototype.generate_us", "us", "lower"},
	{"prototype.count", "count", "lower"},
	{"core.candset_ms", "ms", "lower"},
	{"core.run_ms", "ms", "lower"},
	{"core.run_w0_ms", "ms", "lower"},
	{"core.run_wn_ms", "ms", "lower"},
	{"core.candidate_ms", "ms", "lower"},
	{"core.lcc_ms", "ms", "lower"},
	{"core.nlcc_ms", "ms", "lower"},
	{"core.verify_ms", "ms", "lower"},
	{"core.candidate_share", "ratio", "lower"},
	{"core.messages", "count", "lower"},
	{"core.lcc_iterations", "count", "lower"},
	{"core.tokens", "count", "lower"},
	{"core.nlcc_cache_hit_ratio", "ratio", "higher"},
	{"core.verify_expansions", "count", "lower"},
	{"core.compactions", "count", "higher"},
	{"graph.apply_delta_ms", "ms", "lower"},
	{"graph.rebuild_ratio", "ratio", "lower"},
	{"graph.load_s", "s", "lower"},
	{"wal.append_ms", "ms", "lower"},
	{"wal.bytes_per_record", "B", "lower"},
	{"wal.fsyncs", "count", "lower"},
	{"wal.open_ms", "ms", "lower"},
	{"wal.replayed", "count", "lower"},
	{"wal.replay_ms_per_record", "ms", "lower"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	Workload     string            `json:"workload"`
	Seed         int64             `json:"seed"`
	Seconds      float64           `json:"seconds"`
	Trace        bool              `json:"trace"`
	Correct      bool              `json:"correct"`
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	FirstFailure string            `json:"first_failure,omitempty"`
	Metrics      map[string]metric `json:"metrics"`
	Client       *clientBlock      `json:"client,omitempty"`
	Server       *serverCounters   `json:"server,omitempty"`
	// Traced runs only.
	LayerSelfMS map[string]float64    `json:"layer_self_ms,omitempty"`
	Levels      map[string][]levelRow `json:"levels,omitempty"`
	TracedP50MS float64               `json:"traced_query_p50_ms,omitempty"`
	Spans       int                   `json:"spans,omitempty"`
}

// envInfo is recorded in every output.
type envInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Clients    int    `json:"clients"`
}

type report struct {
	Env  envInfo   `json:"env"`
	Runs []*result `json:"runs"`
}

func environment(root string) envInfo {
	commit := "unknown" // a driver checkout is not a git repository
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return envInfo{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, clientCount()}
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run this workload only (default: all four)")
		seed         = flag.Int64("seed", 1, "seed of the request, mix and delta sequences")
		seconds      = flag.Float64("seconds", 30, "length of the measured phase of each run")
		trace        = flag.Int("trace", 0, "1 = in-process traced run that prints the per-layer metrics")
		repeat       = flag.Int("repeat", 1, "run the whole set this many times (seed, seed+1, ...) and print median, quartiles and spread")
		out          = flag.String("out", "", "also write the report as JSON to this file")
		compare      = flag.Bool("compare", false, "compare two report files: -compare old.json new.json")
	)
	flag.Parse()
	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare old.json new.json"))
		}
		os.Exit(compareReports(root, flag.Arg(0), flag.Arg(1)))
	}
	selected := workloads
	if *workloadName != "" {
		w := workloadByName(*workloadName)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		selected = []workload{*w}
	}
	traced := *trace != 0
	var bin string
	if !traced {
		if bin, err = buildAmatchd(root); err != nil {
			fatal(err)
		}
	}
	rep := report{Env: environment(root)}
	fmt.Printf("env nproc=%d gomaxprocs=%d go=%s commit=%s clients=%d\n",
		rep.Env.NumCPU, rep.Env.GOMAXPROCS, rep.Env.GoVersion, rep.Env.Commit, rep.Env.Clients)
	outDir := filepath.Join(root, "bench", "out")
	for round := 0; round < *repeat; round++ {
		for i := range selected {
			w := &selected[i]
			s := *seed + int64(round)
			workDir := filepath.Join(root, buildDir, fmt.Sprintf("work-%d-%d", os.Getpid(), len(rep.Runs)))
			var res *result
			if traced {
				res, err = runTraced(w, s, *seconds, workDir, outDir)
			} else {
				res, err = (&e2e{w: w, seed: s, seconds: *seconds, bin: bin, workDir: workDir}).run()
			}
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.name, err))
			}
			rep.Runs = append(rep.Runs, res)
			printResult(res, outDir)
		}
	}
	if *repeat > 1 {
		printSpread(rep.Runs)
	}
	if *out != "" {
		b, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(*out, b, 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	// The driver reads the last line: the last run's result.
	last := rep.Runs[len(rep.Runs)-1]
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{last.Correct, last.Attempted, last.Failed, last.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	for _, r := range rep.Runs {
		if !r.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// printResult prints one run: every metric by name and unit, then the
// client and server blocks. An end-to-end run also leaves its result in
// outDir, where the traced run of the same workload finds the end-to-end
// median to report its gap against.
func printResult(r *result, outDir string) {
	kind, defs := "end-to-end", endToEnd
	if r.Trace {
		kind, defs = "traced", perLayer
	}
	fmt.Printf("\n== %s %s seed=%d seconds=%g correct=%t attempted=%d failed=%d fail_ratio=%g\n",
		kind, r.Workload, r.Seed, r.Seconds, r.Correct, r.Attempted, r.Failed, ratio(float64(r.Failed), float64(r.Attempted)))
	if r.FirstFailure != "" {
		fmt.Printf("first failure: %s\n", r.FirstFailure)
	}
	for _, d := range defs {
		fmt.Printf("%-28s %14.4f %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	for _, block := range []struct {
		name string
		v    any
	}{{"client", r.Client}, {"server", r.Server}, {"layer_self_ms", r.LayerSelfMS}, {"levels", r.Levels}} {
		if b, err := json.Marshal(block.v); err == nil && string(b) != "null" {
			fmt.Printf("%s %s\n", block.name, b)
		}
	}
	path := filepath.Join(outDir, "e2e."+r.Workload+".json")
	if !r.Trace {
		if err := os.MkdirAll(outDir, 0o755); err == nil {
			if b, err := json.Marshal(r); err == nil {
				_ = os.WriteFile(path, b, 0o644) // only feeds the traced run's gap line
			}
		}
		return
	}
	var e2eRes result
	if b, err := os.ReadFile(path); err == nil && json.Unmarshal(b, &e2eRes) == nil {
		p50 := e2eRes.Metrics["query_p50_ms"].Value
		fmt.Printf("traced query_p50_ms %.4f vs end-to-end %.4f: gap %.4f ms (loopback, queueing and tracing overhead)\n",
			r.TracedP50MS, p50, p50-r.TracedP50MS)
	} else {
		fmt.Printf("traced query_p50_ms %.4f (no end-to-end run of this workload in %s to compare with)\n", r.TracedP50MS, outDir)
	}
	fmt.Printf("spans %d -> %s\n", r.Spans, filepath.Join(outDir, "trace."+r.Workload+".json"))
}

// series collects, per workload, each metric's values across runs.
func series(runs []*result) map[string]map[string][]float64 {
	s := map[string]map[string][]float64{}
	for _, r := range runs {
		if s[r.Workload] == nil {
			s[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			s[r.Workload][name] = append(s[r.Workload][name], m.Value)
		}
	}
	return s
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printSpread prints the noise floor of a repeated run.
func printSpread(runs []*result) {
	fmt.Printf("\n== noise floor over repeats\n%-18s %-28s %3s %12s %12s %12s %8s\n", "workload", "metric", "n", "q1", "median", "q3", "spread")
	s := series(runs)
	for _, w := range sortedKeys(s) {
		for _, name := range sortedKeys(s[w]) {
			xs := s[w][name]
			q1, _, q3 := quartiles(xs)
			fmt.Printf("%-18s %-28s %3d %12.4f %12.4f %12.4f %8s\n", w, name, len(xs), q1, median(xs), q3, upct(spread(xs)))
		}
	}
}

type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// compareReports prints one row per (end-to-end metric, workload) of two
// reports and returns the exit code: 1 on any "worse" or any rise in
// fail_ratio.
func compareReports(root, oldPath, newPath string) int {
	bf, err := readBenchmarkFile(root)
	if err != nil {
		fatal(err)
	}
	load := func(path string) []*result {
		b, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		var rep report
		if err := json.Unmarshal(b, &rep); err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		var runs []*result
		for _, r := range rep.Runs {
			if !r.Trace {
				runs = append(runs, r)
			}
		}
		return runs
	}
	oldRuns, newRuns := load(oldPath), load(newPath)
	rows, code := compareRuns(bf, oldRuns, newRuns)
	fmt.Printf("%-18s %-16s %12s %12s %8s %6s %8s %s\n", "workload", "metric", "old", "new", "delta", "bound", "spread", "verdict")
	for _, r := range rows {
		fmt.Println(r)
	}
	return code
}

func compareRuns(bf *benchmarkFile, oldRuns, newRuns []*result) (rows []string, code int) {
	so, sn := series(oldRuns), series(newRuns)
	for _, w := range sortedKeys(so) {
		if sn[w] == nil {
			continue
		}
		for _, d := range bf.EndToEnd {
			o, n := so[w][d.Name], sn[w][d.Name]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			mo, mn := median(o), median(n)
			worse := ratio(mn-mo, mo) // share of the old median by which the metric got worse
			if d.Better == "higher" {
				worse = -worse
			}
			sp := spread(o)
			if s := spread(n); s > sp {
				sp = s
			}
			verdict := "same"
			switch {
			case sp > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict, code = "worse", 1
			case worse < -d.Bound:
				verdict = "better"
			}
			rows = append(rows, fmt.Sprintf("%-18s %-16s %12.4f %12.4f %8s %5.0f%% %8s %s",
				w, d.Name, mo, mn, pct(ratio(mn-mo, mo)), 100*d.Bound, upct(sp), verdict))
		}
		fo, fn := failRatio(oldRuns, w), failRatio(newRuns, w)
		verdict := "same"
		if fn > fo {
			verdict, code = "worse", 1
		}
		rows = append(rows, fmt.Sprintf("%-18s %-16s %12.6f %12.6f %8s %6s %8s %s", w, "fail_ratio", fo, fn, "", "0", "", verdict))
	}
	return rows, code
}

func failRatio(runs []*result, workload string) float64 {
	var failed, attempted float64
	for _, r := range runs {
		if r.Workload == workload {
			failed += float64(r.Failed)
			attempted += float64(r.Attempted)
		}
	}
	return ratio(failed, attempted)
}
