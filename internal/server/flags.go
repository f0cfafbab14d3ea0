package server

import (
	"flag"
	"time"
)

// RegisterFlags declares on fs amatchd's query-engine flags — the graph
// file, the edit-distance cap, the per-query timeout, workers, budgets and
// caches — and returns the function to call after fs.Parse: it yields the
// graph path and the Config those flags describe. amatchd registers its
// deployment flags beside these and writes them into the same Config.
func RegisterFlags(fs *flag.FlagSet) func() (graphPath string, cfg Config) {
	var cfg Config
	graphPath := fs.String("graph", "", "background graph edge-list file (required)")
	fs.IntVar(&cfg.MaxEditDistance, "maxk", 6, "largest accepted edit distance")
	fs.DurationVar(&cfg.QueryTimeout, "querytimeout", 30*time.Second, "per-query pipeline timeout (0 = none)")
	fs.IntVar(&cfg.Workers, "workers", 0, "per-query workers for the candidate-set computation; the other kernels are sequential (0 = scheduler-aware default, -1 = none)")
	fs.Int64Var(&cfg.MaxWork, "max-work", 0, "per-query pipeline work-unit budget; exhausted /match queries return an exact partial result (0 = no limit)")
	fs.Int64Var(&cfg.MaxBytes, "max-bytes", 0, "per-query auxiliary allocation budget in bytes (0 = no limit)")
	fs.Int64Var(&cfg.CacheBytes, "cache-bytes", 0, "work-recycling cache cap in bytes, LRU-evicted beyond it (0 = unbounded); caps the shared store with -shared-nlcc, per-query caches otherwise")
	fs.Int64Var(&cfg.ResultCacheBytes, "result-cache-bytes", 64<<20, "cross-query result cache cap in bytes: completed /match responses are cached under the template's canonical key and served verbatim to isomorphic queries (0 = disabled)")
	fs.BoolVar(&cfg.SharedNLCC, "shared-nlcc", true, "share one NLCC work-recycling store across queries so constraint walks recycle across the query boundary")
	return func() (string, Config) { return *graphPath, cfg }
}
