// Command amatch runs an approximate pattern-matching query: it loads a
// background graph (edge-list format) and a search template, searches all
// prototypes within the given edit distance, and reports per-prototype
// solution sizes, match counts and (optionally) per-vertex match vectors.
//
// Usage:
//
//	amatch -graph g.txt -template t.txt -k 2 [-count] [-labels] [-topdown]
//	       [-ranks N] [-flips] [-features out.csv [-rates]] [-matches out.tsv]
//	       [-timeout 30s] [-max-work N] [-max-bytes N] [-cache-bytes N]
//
// Every mode runs under the same options: the budget and cache flags bound
// -topdown, -flips, -ranks and batch runs exactly as they bound a plain one.
//
// The search honors -timeout and Ctrl-C: cancellation stops the pipeline
// mid-phase instead of running the query to completion.
//
// Passing several comma-separated files to -template enters batch mode: the
// graph is loaded once and every template is matched in turn, sharing one
// NLCC work-recycling store (-shared-nlcc) and answering templates
// isomorphic to an earlier one from the retained result
// (-result-cache-bytes) instead of re-running the pipeline.
//
// Graph format: "# vertices N", "v <id> <label>", "<u> <v>" edge lines.
// Template format: "v <index> <label>", "e <i> <j> [mandatory]".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"approxmatch"
	"approxmatch/cmd/internal/graphfile"
	"approxmatch/internal/core"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("amatch: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes one amatch invocation, printing results to out.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("amatch", flag.ExitOnError)
	var (
		graphPath    = fs.String("graph", "", "background graph edge-list file (required)")
		templatePath = fs.String("template", "", "search template file (required)")
		k            = fs.Int("k", 1, "edit distance (edge deletions)")
		count        = fs.Bool("count", false, "enumerate and count matches per prototype")
		labels       = fs.Bool("labels", false, "print per-vertex match vectors")
		topdown      = fs.Bool("topdown", false, "exploratory mode: grow k until matches appear")
		ranks        = fs.Int("ranks", 0, "run on the distributed engine with this many ranks (0 = sequential)")
		featuresOut  = fs.String("features", "", "write per-vertex prototype feature CSV to this file")
		rates        = fs.Bool("rates", false, "export participation counts instead of 0/1 bits (with -features)")
		matchesOut   = fs.String("matches", "", "write the base prototype's match enumeration (TSV) to this file")
		flips        = fs.Bool("flips", false, "also search single-edge-flip variants of the template")
		timeout      = fs.Duration("timeout", 0, "abort the search after this long (0 = no limit)")
		maxWork      = fs.Int64("max-work", 0, "abort the search after this many pipeline work units, keeping completed levels as an exact partial result (0 = no limit)")
		maxBytes     = fs.Int64("max-bytes", 0, "bound the search's auxiliary allocations (state clones, compacted views) to this many bytes (0 = no limit)")
		cacheBytes   = fs.Int64("cache-bytes", 0, "bound the work-recycling cache to this many bytes, evicting least-recently-used entries (0 = unbounded)")
		sharedNLCC   = fs.Bool("shared-nlcc", true, "with multiple -template files, share one work-recycling store across them so constraint walks recycle across queries")
		resultCache  = fs.Int64("result-cache-bytes", 64<<20, "with multiple -template files, retain up to this many bytes of results to answer isomorphic templates without re-running (0 = disabled)")
	)
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if *graphPath == "" || *templatePath == "" {
		fs.Usage()
		os.Exit(2)
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// The one options block every mode below runs under, so no mode can
	// silently drop a flag another honours.
	opts := approxmatch.DefaultOptions(*k)
	opts.CountMatches = *count
	opts.Budget = approxmatch.Budget{MaxWork: *maxWork, MaxBytes: *maxBytes}
	opts.CacheBytes = *cacheBytes

	g, err := graphfile.Load(*graphPath)
	if err != nil {
		return err
	}

	// Batch mode: -template a.txt,b.txt,... runs every template against the
	// one loaded graph, sharing the NLCC work-recycling store and reusing
	// results across isomorphic templates (the CLI shape of the server's
	// cross-query caching).
	if paths := strings.Split(*templatePath, ","); len(paths) > 1 {
		if *topdown || *flips || *ranks > 0 || *featuresOut != "" || *matchesOut != "" {
			return errors.New("batch mode (multiple -template files) supports plain matching only; drop -topdown/-flips/-ranks/-features/-matches")
		}
		fmt.Fprintf(out, "graph: %v\n", graph.ComputeStats(g))
		return queryError(runBatch(ctx, out, g, paths, opts, *sharedNLCC, *resultCache), *timeout)
	}

	t, err := loadTemplate(*templatePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "graph: %v\n", graph.ComputeStats(g))
	fmt.Fprintf(out, "template: %v\n", t)

	if *topdown {
		opts.CountMatches = false // exploration reports no counts
		res, err := approxmatch.ExploreContext(ctx, g, t, opts)
		if err != nil {
			return queryError(err, *timeout)
		}
		if res.FoundDist < 0 {
			fmt.Fprintf(out, "no matches within k=%d (%d prototypes searched)\n", *k, res.PrototypesSearched)
			return nil
		}
		fmt.Fprintf(out, "first matches at edit distance %d; %d vertices participate\n",
			res.FoundDist, res.MatchingVertices.Count())
		return nil
	}

	if *flips {
		res, err := approxmatch.MatchFlipsContext(ctx, g, t, opts)
		if err != nil {
			return queryError(err, *timeout)
		}
		fmt.Fprintf(out, "base: %d vertices", res.Base.Verts.Count())
		if *count {
			fmt.Fprintf(out, ", %d matches", res.Base.MatchCount)
		}
		fmt.Fprintln(out)
		for fi, f := range res.Flips {
			fmt.Fprintf(out, "  flip %-3d (-edge %d, +edge %d-%d): %8d vertices",
				fi, f.Removed, f.Added.I, f.Added.J, res.Solutions[fi].Verts.Count())
			if *count {
				fmt.Fprintf(out, ", %d matches", res.Solutions[fi].MatchCount)
			}
			fmt.Fprintln(out)
		}
		return nil
	}

	// -ranks runs the same pipeline on the simulated distributed runtime;
	// both return a Result and print through the one path below.
	var res *approxmatch.Result
	var engine *approxmatch.DistEngine
	if *ranks > 0 {
		engine = approxmatch.NewDistEngine(g, approxmatch.DistConfig{Ranks: *ranks})
		res, err = approxmatch.MatchDistributedContext(ctx, engine, t, approxmatch.DistOptions{Config: opts, Rebalance: true})
	} else {
		res, err = approxmatch.MatchContext(ctx, g, t, opts)
	}
	if err != nil && (res == nil || !res.Partial) {
		return queryError(err, *timeout)
	}
	notePartial(out, res.Partial)
	fmt.Fprintf(out, "prototypes: %d (classes), %d (edge subsets)\n", res.Set.Count(), res.Set.MaskCount())
	printPrototypes(out, res.Set, res.Solutions, res.Levels, *count)
	fmt.Fprintf(out, "work: %v\n", res.Metrics.String())
	fmt.Fprintf(out, "phases: %s\n", res.Metrics.PhaseSummary())
	if engine != nil {
		fmt.Fprintf(out, "messages: %d total, %.1f%% remote\n",
			engine.Stats.Total(), 100*float64(engine.Stats.Remote())/float64(max64(engine.Stats.Total(), 1)))
	}
	if *labels {
		// MatchVector is internal-id-indexed; list in input-file id order.
		for e := 0; e < g.NumVertices(); e++ {
			mv := res.MatchVector(g.InternalID(graph.VertexID(e)))
			if len(mv) > 0 {
				fmt.Fprintf(out, "v %d: %v\n", e, mv)
			}
		}
	}
	if res.Partial && (*featuresOut != "" || *matchesOut != "") {
		// Feature vectors and match enumerations are whole-run artifacts;
		// exporting unknown columns as zeros would fabricate non-matches.
		return errors.New("refusing to export features/matches from a partial (budget-exhausted) result")
	}
	if *featuresOut != "" {
		err := writeFile(*featuresOut, func(w io.Writer) error {
			return res.WriteFeaturesCSV(w, core.FeatureOptions{OnlyMatching: true, Rates: *rates})
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "features written to %s\n", *featuresOut)
	}
	if *matchesOut != "" {
		err := writeFile(*matchesOut, func(w io.Writer) error { return res.WriteMatchesTSV(w, 0, 0) })
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "matches written to %s\n", *matchesOut)
	}
	return nil
}

// writeFile creates path, streams write into it and closes it, reporting the
// first failure — a short export must not pass for a complete one.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runBatch matches each template in turn. With sharing enabled, all runs
// recycle constraint-walk verdicts through one store, and a template
// isomorphic to an earlier one is answered from the retained result without
// running the pipeline — both are correctness-neutral: cache content only
// skips pruning work, and isomorphic templates provably share their
// prototype sets and solutions (the pipeline runs on the canonical form).
func runBatch(ctx context.Context, out io.Writer, g *approxmatch.Graph, paths []string, opts approxmatch.Options, sharedNLCC bool, resultCacheBytes int64) error {
	if sharedNLCC {
		opts.SharedCache = approxmatch.NewSharedCache(g, opts.CacheBytes)
	}
	type cached struct {
		res *approxmatch.Result
		src int
	}
	seen := make(map[string]cached)
	var retained int64
	for i, path := range paths {
		t, err := loadTemplate(path)
		if err != nil {
			return err
		}
		// A template pattern.Canonical declines (too symmetric) runs under
		// its own numbering and is never reused: its key stays empty.
		run, key := t, ""
		if resultCacheBytes > 0 {
			if form, ck, ok := pattern.Canonical(t); ok {
				run, key = form, fmt.Sprintf("k%d|c%t|%s", opts.EditDistance, opts.CountMatches, ck)
			}
		}
		if key != "" {
			if c, ok := seen[key]; ok {
				fmt.Fprintf(out, "template %d (%s): isomorphic to template %d, result reused\n", i, path, c.src)
				printPrototypes(out, c.res.Set, c.res.Solutions, c.res.Levels, opts.CountMatches)
				continue
			}
		}
		res, err := approxmatch.MatchContext(ctx, g, run, opts)
		if err != nil && (res == nil || !res.Partial) {
			return err
		}
		notePartial(out, res.Partial)
		fmt.Fprintf(out, "template %d (%s): %v\n", i, path, t)
		printPrototypes(out, res.Set, res.Solutions, res.Levels, opts.CountMatches)
		// Retain completed results for reuse while they fit the byte budget;
		// partial results reflect this run's budget, not the graph.
		if key != "" && !res.Partial {
			if fp := resultFootprint(res); retained+fp <= resultCacheBytes {
				seen[key] = cached{res, i}
				retained += fp
			}
		}
	}
	if opts.SharedCache != nil {
		fmt.Fprintf(out, "shared nlcc store: %d sets resident, %d hits, %d evictions\n",
			opts.SharedCache.Sets(), opts.SharedCache.Hits(), opts.SharedCache.Evictions())
	}
	return nil
}

// resultFootprint estimates the bytes a retained result keeps resident (the
// per-prototype solution bitsets dominate).
func resultFootprint(res *approxmatch.Result) int64 {
	var sum int64
	for _, sol := range res.Solutions {
		if sol == nil {
			continue
		}
		if sol.Verts != nil {
			sum += sol.Verts.Bytes()
		}
		if sol.Edges != nil {
			sum += sol.Edges.Bytes()
		}
	}
	return sum
}

func loadTemplate(path string) (*pattern.Template, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return pattern.Parse(f)
}

// queryError rewords a failed or aborted search's error with a
// cancellation-aware message (nil stays nil).
func queryError(err error, timeout time.Duration) error {
	switch {
	case errors.Is(err, approxmatch.ErrBudgetExhausted):
		return fmt.Errorf("search aborted: %w (raise -max-work / -max-bytes)", err)
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("search aborted: exceeded -timeout %v", timeout)
	case errors.Is(err, context.Canceled):
		return errors.New("search aborted: interrupted")
	}
	return err
}

// notePartial prints the anytime-partial banner when a budget ran out
// mid-pipeline.
func notePartial(out io.Writer, partial bool) {
	if partial {
		fmt.Fprintln(out, "NOTE: budget exhausted — partial result; completed levels keep the full precision/recall guarantee, the rest are unknown")
	}
}

// printPrototypes lists per-prototype results; on a partial run the
// prototypes of unfinished levels print as unknown instead of empty.
func printPrototypes(out io.Writer, set *approxmatch.PrototypeSet, sols []*approxmatch.Solution, levels []core.LevelStats, count bool) {
	exact := make(map[int]bool, len(levels))
	for _, lv := range levels {
		exact[lv.Dist] = lv.Complete
	}
	for pi, p := range set.Protos {
		if !exact[p.Dist] || sols[pi] == nil {
			fmt.Fprintf(out, "  δ=%d proto %-4d:  unknown (budget exhausted)\n", p.Dist, pi)
			continue
		}
		fmt.Fprintf(out, "  δ=%d proto %-4d: %8d vertices", p.Dist, pi, sols[pi].Verts.Count())
		if count {
			fmt.Fprintf(out, ", %d matches", sols[pi].MatchCount)
		}
		fmt.Fprintln(out)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
