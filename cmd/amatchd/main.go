// Command amatchd serves approximate pattern-matching queries over HTTP:
// it loads a background graph once and answers /match, /explore, /stats,
// /metrics and /healthz requests (see internal/server) — the long-lived
// bulk-labeling deployment shape of usage scenario S4. With -ingest it also
// accepts live mutation batches on POST /ingest.
//
// Queries run under a bounded concurrent scheduler: -concurrency in-flight
// pipeline runs (default GOMAXPROCS, one per core), a small admission queue,
// 503 + Retry-After beyond that, and a per-query -querytimeout enforced
// through context cancellation (a disconnected client also stops its
// query). Each admitted query searches a level's prototypes on the cores no
// other in-flight query holds, at least one: a lone query uses the whole
// machine, queries admitted beside it run on one core each. The process shuts down
// gracefully on SIGINT/SIGTERM, draining in-flight requests.
//
// Usage:
//
//	amatchd -graph g.txt -addr :8080 [-concurrency N] [-queue N]
//	        [-querytimeout 30s] [-maxbody 1048576] [-maxk 6]
//	        [-max-work N] [-max-bytes N] [-cache-bytes N]
//	        [-result-cache-bytes N] [-shared-nlcc=false]
//	        [-partial-grace 5s] [-mem-watermark N]
//	        [-ingest] [-ingest-maxbody 16777216]
//	        [-wal-dir DIR] [-wal-sync always|interval|none]
//	        [-wal-sync-interval 100ms] [-wal-checkpoint-every N]
//	        [-wal-segment-bytes N]
//	        [-ranks-addr host:p1,host:p2 -ranks-timeout 5s
//	         -ranks-dial-timeout 30s]
//
// The listener binds before the seed graph is loaded and before recovery
// begins, and -addr may be ":0"; the bound address is printed in the
// "serving" log line ("addr" field), which is what the smoke scripts parse
// instead of hardcoding ports. Until the graph is loaded or recovered every
// route — /healthz and /match included — answers 503 with Retry-After.
//
// -wal-dir enables durable ingest: every accepted /ingest batch is
// appended to a segmented, CRC32C-checksummed write-ahead delta log and
// (under -wal-sync always, the default) fsynced before its epoch is
// published, so an acknowledged batch survives crash or kill -9. Periodic
// CSR checkpoints (-wal-checkpoint-every batches) bound restart replay to
// the tail since the last checkpoint. On startup the directory is
// recovered: checkpoint (or the seed graph), then tail replay with
// torn-tail truncation; mid-log corruption refuses to start rather than
// serve a wrong graph. A recovery that had to parse the -graph file also
// checkpoints its epoch and records the file's SHA-256 in the directory,
// so the next start on the same bytes recovers from the checkpoint without
// parsing the file ("seed_loaded":false in the "wal recovered" log line).
// -wal-checkpoint-every 0 parses the seed on every start.
//
// -ingest registers POST /ingest: a JSON batch of edge inserts/deletes and
// vertex relabels is applied as one atomic epoch swap — in-flight queries
// keep reading the snapshot they pinned, new queries see the new epoch, and
// both cross-query caches are invalidated. Off by default: the endpoint is
// unauthenticated, so exposing it is a deliberate deployment decision (it is
// both a data-integrity and a cache-flush denial-of-service lever).
// -ingest-maxbody caps the batch body separately from -maxbody.
//
// The resource-governance flags bound each query: -max-work / -max-bytes
// cap pipeline work and auxiliary allocation (exhausted /match queries
// return an HTTP 200 partial result whose completed levels stay exact),
// -cache-bytes bounds the per-query work-recycling cache, -partial-grace
// controls the slow-query watchdog that downgrades over-deadline queries to
// partial-result mode before killing them, and -mem-watermark sheds new
// queries while the live heap is above the given size.
//
// The cross-query caching flags default on: -result-cache-bytes caches
// completed /match responses under the template's canonical key — any
// isomorphic resubmission is answered verbatim without running the
// pipeline, and concurrent identical queries coalesce into one run —
// while -shared-nlcc promotes the NLCC work-recycling cache to one store
// shared across queries. Both are correctness-neutral: exact verification
// never depended on either cache.
//
// -ranks-addr turns the server into a thin coordinator over a group of
// amatchd worker processes, each a plain amatchd on the same graph file:
// /match and /explore requests are validated locally, then posted over
// HTTP (round-robin with failover) to a worker whose GET /signature matches
// this server's graph, and the worker's status, Content-Type and body are
// relayed verbatim — byte-identical to what the in-process engine would
// have served. All other endpoints stay local. -ranks-timeout bounds each
// dial and routed exchange (0 = -querytimeout, or 5s when that is unset).
//
// Example queries:
//
//	curl -s localhost:8080/match -d '{"template":"v 0 1\nv 1 2\ne 0 1","k":1,"count":true}'
//	curl -s localhost:8080/metrics
//	curl -s localhost:8080/healthz
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"approxmatch/cmd/internal/graphfile"
	"approxmatch/internal/graph"
	"approxmatch/internal/router"
	"approxmatch/internal/server"
	"approxmatch/internal/wal"
)

// options is amatchd's command line: the server Config its flags describe
// plus the deployment settings main acts on itself.
type options struct {
	graph, addr             string
	ranksAddr               string
	ranksTimeout, ranksDial time.Duration
	walDir, walSync         string
	walSyncEvery            time.Duration
	walCkptEvery            int
	walSegBytes             int64
	cfg                     server.Config
}

// registerFlags declares every amatchd flag on fs; fs.Parse fills the
// returned options.
func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	c := &o.cfg
	fs.StringVar(&o.graph, "graph", "", "background graph edge-list file (required)")
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&c.MaxEditDistance, "maxk", 6, "largest accepted edit distance")
	fs.DurationVar(&c.QueryTimeout, "querytimeout", 30*time.Second, "per-query pipeline timeout (0 = none)")
	fs.IntVar(&c.MaxConcurrent, "concurrency", 0, "max in-flight queries (0 = GOMAXPROCS, one per core; each query is widened only onto cores no other in-flight query holds)")
	fs.IntVar(&c.QueueDepth, "queue", 0, "admission queue depth beyond in-flight (0 = 2×concurrency, -1 = none)")
	fs.Int64Var(&c.MaxBodyBytes, "maxbody", 1<<20, "max request body bytes")
	fs.Int64Var(&c.MaxWork, "max-work", 0, "per-query pipeline work-unit budget; exhausted /match queries return an exact partial result (0 = no limit)")
	fs.Int64Var(&c.MaxBytes, "max-bytes", 0, "per-query auxiliary allocation budget in bytes (0 = no limit)")
	fs.Int64Var(&c.CacheBytes, "cache-bytes", 0, "work-recycling cache cap in bytes, LRU-evicted beyond it (0 = unbounded); caps the shared store with -shared-nlcc, per-query caches otherwise")
	fs.Int64Var(&c.ResultCacheBytes, "result-cache-bytes", 64<<20, "cross-query result cache cap in bytes: completed /match responses are cached under the template's canonical key and served verbatim to isomorphic queries (0 = disabled)")
	fs.BoolVar(&c.SharedNLCC, "shared-nlcc", true, "share one NLCC work-recycling store across queries so constraint walks recycle across the query boundary")
	fs.DurationVar(&c.PartialGrace, "partial-grace", 0, "slow-query watchdog window: queries crossing -querytimeout get this long to wind down into a partial result before a hard kill (0 = querytimeout/4, min 1s; negative disables the downgrade)")
	fs.Uint64Var(&c.MemHighWatermark, "mem-watermark", 0, "shed new queries with 503 while the live Go heap exceeds this many bytes (0 = disabled)")
	fs.BoolVar(&c.EnableIngest, "ingest", false, "enable POST /ingest live mutation batches (unauthenticated graph writes — only expose on trusted networks)")
	fs.Int64Var(&c.IngestMaxBodyBytes, "ingest-maxbody", 16<<20, "max /ingest request body bytes")
	fs.StringVar(&o.ranksAddr, "ranks-addr", "", "comma-separated host:port addresses of amatchd workers serving the same graph; when set, /match and /explore are routed to them over HTTP (empty = in-process engine)")
	fs.DurationVar(&o.ranksTimeout, "ranks-timeout", 0, "per-exchange coordinator timeout for dials and routed queries (0 = querytimeout, or 5s when that is unset)")
	fs.DurationVar(&o.ranksDial, "ranks-dial-timeout", 30*time.Second, "total budget for dialing the rank group: a worker that refuses the dial or is not ready yet (503) is retried with capped exponential backoff until it elapses (0 = one attempt per worker)")
	fs.StringVar(&o.walDir, "wal-dir", "", "write-ahead log directory for durable ingest; recovered on startup (empty = ingest is volatile)")
	fs.StringVar(&o.walSync, "wal-sync", "always", "WAL append sync policy: always (fsync per batch), interval (background fsync), none")
	fs.DurationVar(&o.walSyncEvery, "wal-sync-interval", 100*time.Millisecond, "background fsync period under -wal-sync interval")
	fs.IntVar(&o.walCkptEvery, "wal-checkpoint-every", 256, "write a CSR checkpoint after this many logged batches, bounding restart replay to the tail (0 = never)")
	fs.Int64Var(&o.walSegBytes, "wal-segment-bytes", 64<<20, "rotate WAL segments at this size")
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	if o.graph == "" {
		flag.Usage()
		os.Exit(2)
	}
	cfg := o.cfg
	cfg.Logger = logger
	// Bind the listener and start serving behind a ready gate before the
	// seed load, recovery and rank dialing begin: probes and smoke scripts
	// see a live port (503 + Retry-After on every route) instead of
	// connection refused, and -addr ":0" works — the bound address is in
	// the "serving" log line.
	gate := server.NewReadyGate()
	// WriteTimeout must outlast the slowest legitimate query plus response
	// streaming; with no query timeout it stays unbounded (the scheduler
	// still sheds load and client disconnects still cancel queries).
	var writeTimeout time.Duration
	if cfg.QueryTimeout > 0 {
		writeTimeout = cfg.QueryTimeout + time.Minute
	}
	hs := &http.Server{
		Handler:           gate,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
		ErrorLog:          slog.NewLogLogger(logger.Handler(), slog.LevelWarn),
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		fatal(logger, "listen", err)
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	logger.Info("serving", "addr", ln.Addr().String())

	// Recover or load. -wal-dir recovers the durable state before anything
	// is published: checkpoint (or the seed graph), then tail replay. The
	// seed is parsed only when the directory cannot vouch for the -graph
	// file's bytes (wal.OpenSeed).
	var g *graph.Graph
	if o.walDir == "" {
		if g, err = graphfile.Load(o.graph); err != nil {
			fatal(logger, "load graph", err)
		}
	} else {
		policy, err := wal.ParseSyncPolicy(o.walSync)
		if err != nil {
			fatal(logger, "parse -wal-sync", err)
		}
		var rec *wal.Recovery
		cfg.WAL, rec, err = wal.OpenSeed(wal.Options{
			Dir:             o.walDir,
			Sync:            policy,
			SyncEvery:       o.walSyncEvery,
			SegmentBytes:    o.walSegBytes,
			CheckpointEvery: o.walCkptEvery,
		}, graphfile.Seed(o.graph))
		if err != nil {
			fatal(logger, "recover wal", err)
		}
		g, cfg.StartEpoch = rec.Graph, rec.Epoch
		logger.Info("wal recovered",
			"dir", o.walDir, "epoch", rec.Epoch,
			"from_checkpoint", rec.FromCheckpoint, "checkpoint_epoch", rec.CheckpointEpoch,
			"replayed", rec.Replayed, "torn_tail", rec.TornTail,
			"seed_loaded", rec.SeedLoaded, "elapsed_ms", rec.Elapsed.Milliseconds())
	}

	// -ranks-addr opts into coordinator mode: queries route to a group of
	// amatchd workers, validated at dial time to serve exactly this
	// graph (structural signature over the relabeled, recovered form). The
	// local graph still backs /stats, /healthz and the fallback-free
	// contract that workers and coordinator agree on ids. Failed dials
	// retry with backoff for up to -ranks-dial-timeout, so workers started
	// in parallel with the server do not have to win the race.
	if o.ranksAddr != "" {
		to := o.ranksTimeout
		if to <= 0 {
			to = cfg.QueryTimeout
		}
		coord, err := router.DialGroupWithin(splitAddrs(o.ranksAddr), router.GraphSignature(g), to, o.ranksDial)
		if err != nil {
			fatal(logger, "dial rank group", err)
		}
		defer coord.Close()
		logger.Info("rank group dialed", "workers", coord.Size(), "addrs", o.ranksAddr)
		cfg.Coordinator = coord
	}
	s := server.NewWithConfig(g, cfg)
	gate.Ready(s.Handler())
	st := graph.ComputeStats(g)
	logger.Info("graph loaded",
		"vertices", st.NumVertices, "edges", st.NumEdges, "labels", st.NumLabels,
		"epoch", cfg.StartEpoch)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	select {
	case err := <-errc:
		fatal(logger, "listen", err)
	case <-ctx.Done():
	}
	stop()
	logger.Info("shutting down, draining in-flight requests")
	drain := 10 * time.Second
	if cfg.QueryTimeout > 0 {
		drain = cfg.QueryTimeout + 5*time.Second
	}
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		logger.Warn("forced shutdown", "err", err)
		hs.Close()
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(logger, "serve", err)
	}
	if cfg.WAL != nil {
		// Final sync after the drain: every acknowledged batch is already
		// durable per the sync policy; this just tidies interval/none mode
		// on a clean shutdown.
		if err := cfg.WAL.Close(); err != nil {
			logger.Warn("wal close", "err", err)
		}
	}
	logger.Info("stopped")
}

func fatal(logger *slog.Logger, msg string, err error) {
	logger.Error(msg, "err", err)
	os.Exit(1)
}

// splitAddrs parses the -ranks-addr comma list, dropping empty entries.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}
