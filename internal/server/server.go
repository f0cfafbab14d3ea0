// Package server exposes the approximate-matching pipeline as an HTTP
// service for the bulk-labeling scenario (S4): a long-lived process loads
// the background graph once and answers template queries over a small JSON
// API — the "high-throughput matching pipeline" deployment shape the paper
// motivates for ML feature extraction.
//
//	POST /match    {"template": "...", "k": 2, "count": true}
//	POST /explore  {"template": "...", "k": 4}
//	GET  /stats
//	GET  /metrics
//	GET  /healthz
//	GET  /signature
//
// Templates use the pattern text format ("v <i> <label>" / "e <i> <j>
// [label=<L>] [mandatory]"). Responses carry per-prototype summaries and,
// when requested, per-vertex match vectors.
//
// Queries run concurrently under a bounded scheduler: up to
// Config.MaxConcurrent pipeline runs in flight (by default one per core), a
// small admission queue, and immediate 503 + Retry-After beyond that. Each
// admitted query searches a level's prototypes on the cores no other
// in-flight query holds (core.RunParallelContext's width), so a lone query
// uses the whole machine and concurrent queries get a core each. Every
// query carries the request context — optionally bounded by
// Config.QueryTimeout — so client disconnects and deadlines stop pipeline
// work instead of letting it run to completion.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"approxmatch/internal/core"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
	"approxmatch/internal/router"
	"approxmatch/internal/wal"
)

// Config tunes the serving layer. The zero value picks GOMAXPROCS-aware
// defaults, so NewWithConfig(g, Config{}) behaves like New(g).
type Config struct {
	// MaxConcurrent bounds in-flight pipeline runs (default: GOMAXPROCS,
	// one admitted query per core).
	MaxConcurrent int
	// QueueDepth bounds admitted queries waiting for a slot (default:
	// 2×MaxConcurrent). Beyond in-flight+queued, requests get 503.
	QueueDepth int
	// Parallelism fixes the per-query core.RunParallelContext width. 0
	// sizes each query at admission instead: it gets the cores no other
	// in-flight query holds, at least one — full width alone, width 1
	// under concurrent load. Answers do not depend on the width.
	Parallelism int
	// Workers is ignored: a query's kernels run on its own goroutines and
	// parallelize across prototypes (Parallelism).
	//
	// Deprecated: set nothing; the field goes once no caller names it.
	Workers int
	// MaxEditDistance bounds accepted k values (default 6).
	MaxEditDistance int
	// QueryTimeout bounds each query's pipeline time; 0 disables (the
	// request context still cancels on client disconnect).
	QueryTimeout time.Duration
	// MaxBodyBytes caps the request body (default 1 MiB; larger bodies
	// get 413).
	MaxBodyBytes int64
	// MaxWork and MaxBytes bound each query's pipeline work units and
	// auxiliary allocation (core.Budget); 0 = unlimited. A query that
	// exhausts either returns a Partial result on /match (HTTP 200 with
	// the partial flag; completed levels exact) and 504 on /explore.
	MaxWork  int64
	MaxBytes int64
	// CacheBytes caps each query's NLCC work-recycling cache; beyond it,
	// least-recently-used constraint sets are evicted (recomputation cost
	// only, never correctness). 0 = unbounded. With SharedNLCC set it caps
	// the one shared store instead.
	CacheBytes int64
	// ResultCacheBytes enables the cross-query result cache: completed
	// /match responses are cached under the template's canonical key (byte
	// capped, LRU) and served verbatim to isomorphic queries; concurrent
	// identical queries are coalesced into one pipeline run (single
	// flight). 0 disables. Partial results are never cached.
	ResultCacheBytes int64
	// SharedNLCC promotes the per-query NLCC work-recycling cache to one
	// store shared by every query on this graph epoch, so constraint walks
	// recycle across queries (Obs. 2 across the query boundary). Cache
	// content never affects results — exact verification restores
	// precision — so sharing is correctness-neutral by construction.
	SharedNLCC bool
	// PartialGrace is the slow-query watchdog window. With QueryTimeout
	// set, a query crossing QueryTimeout is first downgraded to
	// partial-result mode (wall budget exhaustion → anytime partial
	// result) and only killed outright — context deadline — once the
	// grace has passed too. 0 picks QueryTimeout/4, at least 1s; negative
	// disables the downgrade (hard kill at QueryTimeout).
	PartialGrace time.Duration
	// MemHighWatermark sheds new queries with 503 while the live Go heap
	// (runtime/metrics) exceeds this many bytes; 0 disables. In-flight
	// queries are unaffected — their budgets bound them.
	MemHighWatermark uint64
	// EnableIngest registers POST /ingest: live mutation batches (edge
	// inserts/deletes, vertex relabels) applied as epoch-swapped snapshots
	// while in-flight queries keep reading their epoch. Off by default —
	// an unauthenticated graph-mutation endpoint is a data-integrity and
	// cache-flush DoS lever, so deployments must opt in (amatchd -ingest).
	EnableIngest bool
	// IngestMaxBodyBytes caps the /ingest request body (default 16 MiB;
	// larger batches get 413). Ingest batches are legitimately much larger
	// than queries, so they do not share MaxBodyBytes.
	IngestMaxBodyBytes int64
	// Logger receives one structured line per finished request (default:
	// discard).
	Logger *slog.Logger
	// Coordinator, when non-nil, routes /match and /explore queries to a
	// group of amatchd worker processes (see router.DialGroupWithin)
	// instead of the in-process engine; the response bytes are relayed
	// verbatim. All other endpoints stay local, and a nil Coordinator is
	// the in-process fallback. The server does not take ownership — the
	// caller closes the coordinator on shutdown.
	Coordinator *router.Coordinator
	// WAL, when non-nil, makes ingest durable: every accepted batch is
	// appended to the write-ahead delta log — and fsynced, per the log's
	// sync policy — before its epoch is published, so an acknowledged
	// /ingest response implies the batch survives a crash (the
	// write-ahead contract; see internal/wal). The server does not take
	// ownership: the caller closes the log on shutdown.
	WAL *wal.Log
	// StartEpoch is the snapshot store's starting epoch. Non-zero only on
	// the WAL recovery path, where the store must resume at the epoch the
	// recovered graph corresponds to so the log's epoch chain, the
	// epoch-keyed caches and replaying clients all agree.
	StartEpoch uint64
}

// partialGrace resolves the watchdog window (see Config.PartialGrace);
// 0 means the downgrade is disabled.
func (c Config) partialGrace() time.Duration {
	if c.QueryTimeout <= 0 || c.PartialGrace < 0 {
		return 0
	}
	if c.PartialGrace > 0 {
		return c.PartialGrace
	}
	g := c.QueryTimeout / 4
	if g < time.Second {
		g = time.Second
	}
	return g
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent < 1 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 2 * c.MaxConcurrent
	}
	if c.QueueDepth < 0 { // explicit "no queue"
		c.QueueDepth = 0
	}
	if c.MaxEditDistance <= 0 {
		c.MaxEditDistance = 6
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.IngestMaxBodyBytes <= 0 {
		c.IngestMaxBodyBytes = 16 << 20
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Server answers matching queries over one background graph under a bounded
// concurrent scheduler (see Config).
type Server struct {
	// snaps holds the epoch-swapped graph snapshots: every query pins the
	// current snapshot for its whole run, so /ingest can swap in the next
	// epoch underneath without disturbing in-flight work. The snapshot's
	// epoch participates in every result cache key, so a swap atomically
	// versions out all cached results even if a stale leader later
	// completes an old-epoch flight.
	snaps *graph.SnapshotStore

	cfg     Config
	sched   *scheduler
	metrics *metricsRegistry
	mem     *memWatcher
	log     *slog.Logger
	stats   atomic.Pointer[StatsResponse]
	sig     atomic.Pointer[router.SignatureReply] // /signature, cached per epoch
	qid     atomic.Uint64

	// rcache/flights implement the cross-query result cache (nil when
	// Config.ResultCacheBytes is 0); nlccShared is the cross-query NLCC
	// store (nil unless Config.SharedNLCC).
	rcache     *resultCache
	flights    *flightGroup
	nlccShared *core.Cache
}

// New wraps a background graph with default scheduling (see Config).
func New(g *graph.Graph) *Server { return NewWithConfig(g, Config{}) }

// NewWithConfig wraps a background graph. Graph statistics are computed once
// here so /stats is an O(1) health probe, not an O(V+E) walk per GET.
func NewWithConfig(g *graph.Graph, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		snaps:   graph.NewSnapshotStoreAt(g, cfg.StartEpoch),
		cfg:     cfg,
		sched:   newScheduler(cfg.MaxConcurrent, cfg.QueueDepth, cfg.Parallelism, runtime.GOMAXPROCS(0)),
		metrics: newMetricsRegistry(),
		mem:     newMemWatcher(cfg.MemHighWatermark),
		log:     cfg.Logger,
	}
	s.stats.Store(s.computeStats(g, cfg.StartEpoch))
	if cfg.ResultCacheBytes > 0 {
		s.rcache = newResultCache(cfg.ResultCacheBytes)
		s.flights = newFlightGroup()
	}
	if cfg.SharedNLCC {
		// The vertex set is fixed across epochs (deltas change edges and
		// labels only), so one store sized at construction stays valid for
		// the server's lifetime; ingest purges it instead of replacing it.
		s.nlccShared = core.NewCacheBytes(g.NumVertices(), cfg.CacheBytes)
	}
	return s
}

// computeStats builds the /stats payload for one epoch (an O(V+E) walk,
// done once per construction or ingest, never per GET).
func (s *Server) computeStats(g *graph.Graph, epoch uint64) *StatsResponse {
	st := graph.ComputeStats(g)
	return &StatsResponse{
		Vertices:   st.NumVertices,
		Edges:      st.NumEdges,
		MaxDegree:  st.MaxDegree,
		AvgDegree:  st.AvgDegree,
		Labels:     st.NumLabels,
		EdgeLabels: g.HasEdgeLabels(),
		Epoch:      epoch,
	}
}

// purgeCaches drops both cross-query caches after an epoch swap. The result
// cache's old-epoch keys are already unreachable (new queries key by the new
// epoch); purging just returns the memory early.
func (s *Server) purgeCaches() {
	if s.rcache != nil {
		s.rcache.purge()
	}
	if s.nlccShared != nil {
		s.nlccShared.Purge()
	}
}

// Handler returns the HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /match", s.handleMatch)
	mux.HandleFunc("POST /explore", s.handleExplore)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /signature", s.handleSignature)
	if s.cfg.EnableIngest {
		mux.HandleFunc("POST /ingest", s.handleIngest)
	}
	return mux
}

// MatchRequest is the /match and /explore request body.
type MatchRequest struct {
	// Template in the pattern text format.
	Template string `json:"template"`
	// K is the edit-distance budget.
	K int `json:"k"`
	// Count enumerates match counts per prototype.
	Count bool `json:"count"`
	// Vectors includes per-vertex match vectors for matching vertices.
	Vectors bool `json:"vectors"`
}

// PrototypeSummary describes one prototype's result. Exact is true when the
// prototype's edit-distance level completed — always on a full run; on a
// partial (budget-exhausted) run, non-exact prototypes' counts are unknown
// placeholders, never false positives.
type PrototypeSummary struct {
	Index      int    `json:"index"`
	Dist       int    `json:"dist"`
	Vertices   int    `json:"vertices"`
	MatchCount *int64 `json:"matches,omitempty"`
	Exact      bool   `json:"exact"`
}

// MatchResponse is the /match response body.
type MatchResponse struct {
	// Prototypes is always a JSON array (never null), one entry per
	// prototype.
	Prototypes []PrototypeSummary `json:"prototypes"`
	// Labels counts (vertex, prototype) labels generated.
	Labels int64 `json:"labels"`
	// Vectors maps vertex id → matched prototype indices (only matching
	// vertices). Always a JSON object (never null); populated only when
	// vectors were requested.
	Vectors map[string][]int `json:"vectors"`
	// ElapsedMS is the query's wall time.
	ElapsedMS int64 `json:"elapsed_ms"`
	// Partial is set when the query's budget ran out mid-pipeline: the
	// prototypes marked exact carry full-precision, full-recall results;
	// the rest are unknown (anytime partial result, Obs. 1).
	Partial bool `json:"partial"`
}

// ExploreResponse is the /explore response body.
type ExploreResponse struct {
	FoundDist          int   `json:"found_dist"`
	PrototypesSearched int   `json:"prototypes_searched"`
	MatchingVertices   int   `json:"matching_vertices"`
	ElapsedMS          int64 `json:"elapsed_ms"`
}

// StatsResponse is the /stats response body, describing the current graph
// epoch.
type StatsResponse struct {
	Vertices   int     `json:"vertices"`
	Edges      int     `json:"edges"`
	MaxDegree  int     `json:"max_degree"`
	AvgDegree  float64 `json:"avg_degree"`
	Labels     int     `json:"labels"`
	EdgeLabels bool    `json:"edge_labels"`
	Epoch      uint64  `json:"epoch"`
}

// request carries one query's bookkeeping from admission to the log line.
type request struct {
	id       string
	endpoint string
	start    time.Time
}

func (s *Server) begin(endpoint string) *request {
	return &request{
		id:       fmt.Sprintf("q%08d", s.qid.Add(1)),
		endpoint: endpoint,
		start:    time.Now(),
	}
}

// finish records the outcome in the metrics registry and emits the query's
// structured log line.
func (s *Server) finish(r *http.Request, q *request, outcome string, status int, attrs ...slog.Attr) {
	elapsed := time.Since(q.start)
	s.metrics.record(q.endpoint, outcome, elapsed)
	base := []slog.Attr{
		slog.String("qid", q.id),
		slog.String("endpoint", q.endpoint),
		slog.String("outcome", outcome),
		slog.Int("status", status),
		slog.Int64("elapsed_ms", elapsed.Milliseconds()),
		slog.String("remote", r.RemoteAddr),
	}
	s.log.LogAttrs(r.Context(), slog.LevelInfo, "query", append(base, attrs...)...)
}

// reject writes an error response and records its outcome under the same
// status, so the two can never disagree.
func (s *Server) reject(w http.ResponseWriter, r *http.Request, q *request, status int, outcome, msg string, attrs ...slog.Attr) {
	http.Error(w, msg, status)
	s.finish(r, q, outcome, status, attrs...)
}

// accept decodes and validates the query body — capped at
// Config.MaxBodyBytes (413 on overflow), k range-checked, template parsed —
// exactly once per request. In coordinator mode the bytes the decoder
// consumed are kept and topped up with whatever follows the first JSON
// value, so the rank group parses exactly the body validated here; the
// request is then finished by forward. accept returns ok=false when the
// response has already been written and the outcome recorded.
func (s *Server) accept(w http.ResponseWriter, r *http.Request, q *request) (*MatchRequest, *pattern.Template, bool) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var src io.Reader = body
	var raw *bytes.Buffer
	if s.cfg.Coordinator != nil {
		raw = new(bytes.Buffer)
		src = io.TeeReader(body, raw)
	}
	var req MatchRequest
	err := json.NewDecoder(src).Decode(&req)
	if err == nil && raw != nil {
		_, err = raw.ReadFrom(body)
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.reject(w, r, q, http.StatusRequestEntityTooLarge, outcomeTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
		} else {
			s.reject(w, r, q, http.StatusBadRequest, outcomeBadRequest, fmt.Sprintf("bad request: %v", err))
		}
		return nil, nil, false
	}
	if req.K < 0 || req.K > s.cfg.MaxEditDistance {
		s.reject(w, r, q, http.StatusBadRequest, outcomeBadRequest, fmt.Sprintf("k must be in [0,%d]", s.cfg.MaxEditDistance), slog.Int("k", req.K))
		return nil, nil, false
	}
	t, err := pattern.Parse(strings.NewReader(req.Template))
	if err != nil {
		s.reject(w, r, q, http.StatusBadRequest, outcomeBadRequest, fmt.Sprintf("bad template: %v", err), slog.Int("k", req.K))
		return nil, nil, false
	}
	if s.cfg.Coordinator != nil {
		s.forward(w, r, q, raw.Bytes())
		return nil, nil, false
	}
	return &req, t, true
}

// queryContext derives the pipeline context: the request context (fires on
// client disconnect and server shutdown) bounded by the query timeout plus
// the watchdog grace. With the downgrade enabled, the wall *budget* fires at
// QueryTimeout and turns the query into a partial result; the context
// deadline is the backstop that kills a query which cannot even wind down
// within the grace.
func (s *Server) queryContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.QueryTimeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.QueryTimeout+s.cfg.partialGrace())
	}
	return context.WithCancel(r.Context())
}

// withQueryBudget attaches the per-query budget tracker to ctx: the
// configured work and byte caps, plus the watchdog's wall cap when the
// partial downgrade is enabled. It is called after admission so queue wait
// never consumes the query's wall budget.
func (s *Server) withQueryBudget(ctx context.Context) context.Context {
	b := core.Budget{MaxWork: s.cfg.MaxWork, MaxBytes: s.cfg.MaxBytes}
	if s.cfg.partialGrace() > 0 {
		b.MaxWall = s.cfg.QueryTimeout
	}
	return core.WithBudget(ctx, b)
}

// retryAfterSeconds derives the 503 Retry-After hint from current load
// instead of a hardcoded constant: the backlog ahead of a retrying client
// (in-flight plus queued queries) divided over the service rate the slots
// sustain, using the configured query timeout as the per-query worst case
// (1s per query when no timeout is configured). Clamped to [1, 60] so the
// header is always a positive integer and never tells a client to go away
// for minutes just because the queue momentarily spiked.
func (s *Server) retryAfterSeconds() int {
	backlog := s.sched.inFlight() + s.sched.waiting() + 1
	perQuery := s.cfg.QueryTimeout
	if perQuery <= 0 {
		perQuery = time.Second
	}
	secs := int64(perQuery.Seconds()*float64(backlog)/float64(s.cfg.MaxConcurrent) + 0.5)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return int(secs)
}

// shedMemory rejects the query with 503 when the heap is above the high
// watermark. It reports whether the request was handled.
func (s *Server) shedMemory(w http.ResponseWriter, r *http.Request, q *request) bool {
	if !s.mem.over() {
		return false
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", s.retryAfterSeconds()))
	s.reject(w, r, q, http.StatusServiceUnavailable, outcomeMemOverload, "server over memory watermark, retry later")
	return true
}

// writeContextError maps a fired query context to its response, wherever the
// query was when it fired (queued for a slot, waiting on a coalesced leader,
// inside the pipeline): deadline expiry is a 504 carrying msg; cancellation
// means the client is gone, so nothing useful can be written and only the
// outcome is recorded.
func (s *Server) writeContextError(w http.ResponseWriter, r *http.Request, q *request, err error, msg string, attrs ...slog.Attr) {
	if errors.Is(err, context.DeadlineExceeded) {
		s.reject(w, r, q, http.StatusGatewayTimeout, outcomeTimeout, msg, attrs...)
		return
	}
	s.finish(r, q, outcomeCanceled, http.StatusServiceUnavailable, attrs...)
}

// admit acquires a pipeline slot and the query's width, translating
// scheduler errors into HTTP responses. On failure it records the outcome
// and returns a nil release.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter, r *http.Request, q *request) (release func(), width int) {
	release, width, err := s.sched.acquire(ctx)
	switch {
	case err == nil:
		return release, width
	case errors.Is(err, errOverloaded):
		w.Header().Set("Retry-After", fmt.Sprintf("%d", s.retryAfterSeconds()))
		s.reject(w, r, q, http.StatusServiceUnavailable, outcomeOverload, "server overloaded, retry later")
	default: // the query context fired while queued
		s.writeContextError(w, r, q, err, "queue wait exceeded query timeout")
	}
	return nil, 0
}

// writePipelineError maps a pipeline error to an HTTP response and outcome.
func (s *Server) writePipelineError(w http.ResponseWriter, r *http.Request, q *request, err error, k int) {
	var pe *core.PanicError
	switch {
	case errors.As(err, &pe):
		// The pipeline panicked inside this query; the panic was contained
		// to the query's goroutines and the process keeps serving.
		s.metrics.notePanic()
		s.log.LogAttrs(r.Context(), slog.LevelError, "pipeline panic",
			slog.String("qid", q.id), slog.String("panic", fmt.Sprint(pe.Val)),
			slog.String("stack", string(pe.Stack)))
		s.reject(w, r, q, http.StatusInternalServerError, outcomePanic, "internal pipeline error", slog.Int("k", k))
	case errors.Is(err, core.ErrBudgetExhausted):
		// Budget exhaustion with no partial result to salvage (top-down
		// exploration): report it like a server-side deadline.
		s.metrics.noteBudgetExhausted(false)
		s.reject(w, r, q, http.StatusGatewayTimeout, outcomeBudget, err.Error(), slog.Int("k", k))
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.writeContextError(w, r, q, err, fmt.Sprintf("query exceeded timeout %v", s.cfg.QueryTimeout), slog.Int("k", k))
	default:
		s.reject(w, r, q, http.StatusUnprocessableEntity, outcomeUnprocessable, err.Error(), slog.Int("k", k))
	}
}

// pipelineConfig builds the one per-query pipeline configuration /match and
// /explore both run under: the fully optimized defaults for the request's k
// with the server's cache settings folded in.
func (s *Server) pipelineConfig(req *MatchRequest) core.Config {
	cfg := core.DefaultConfig(req.K)
	cfg.CountMatches = req.Count
	cfg.CacheBytes = s.cfg.CacheBytes
	cfg.SharedCache = s.nlccShared
	return cfg
}

// runQuery is the one path every query takes from "request accepted" to
// "slot released": memory shed → deadline → admission → budget → pipeline →
// error mapping → metrics → release. run executes the endpoint's pipeline at
// the width admission granted and, still holding the slot (it reads
// pipeline state), builds the wire response; it returns the work counters to
// fold into /metrics and whether the result is an anytime partial. run executes inside the panic
// boundary, so a bug on the handler goroutine is isolated to this query.
//
// runQuery reports false when it has already written an error response and
// recorded the outcome. Either way the slot is released before it returns
// or writes anything: serializing a huge response, or an error, to a slow
// client must not occupy query capacity.
func (s *Server) runQuery(w http.ResponseWriter, r *http.Request, q *request, req *MatchRequest,
	run func(ctx context.Context, cfg core.Config, width int) (m *core.Metrics, partial bool, err error)) bool {
	if s.shedMemory(w, r, q) {
		return false
	}
	ctx, cancel := s.queryContext(r)
	defer cancel()
	release, width := s.admit(ctx, w, r, q)
	if release == nil {
		return false
	}
	m, partial, err := func() (m *core.Metrics, partial bool, err error) {
		defer recoverToPanicError(&err)
		return run(s.withQueryBudget(ctx), s.pipelineConfig(req), width)
	}()
	release()
	if err != nil {
		s.writePipelineError(w, r, q, err, req.K)
		return false
	}
	// Fold the query's counters whether it completed or went partial — work
	// performed must reach /metrics either way.
	s.metrics.observePipeline(m)
	if partial {
		s.metrics.noteBudgetExhausted(true)
	}
	return true
}

// recoverToPanicError converts any panic on the handler goroutine — e.g. a
// bug in the sequential pipeline phases, which run on the calling goroutine
// — into a *core.PanicError, isolating it to this query. (Panics inside
// pipeline worker goroutines are already converted by core itself.)
func recoverToPanicError(err *error) {
	if r := recover(); r != nil {
		*err = &core.PanicError{Val: r, Stack: debug.Stack()}
	}
}

// testHookMatch, when set, runs inside /match's panic-isolation boundary,
// just before the pipeline call, with the width the query was admitted at —
// the seam the panic-isolation, single-flight and width tests use to poison,
// pin or observe one query.
var testHookMatch func(req *MatchRequest, width int)

func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	q := s.begin("match")
	req, t, ok := s.accept(w, r, q)
	if !ok {
		return
	}

	// Pin the current graph epoch for the query's whole lifetime — cache
	// lookup, pipeline run and response all see one immutable snapshot,
	// even if /ingest swaps in the next epoch mid-flight.
	snap := s.snaps.Acquire()
	defer snap.Release()

	// Cross-query result cache: canonicalize the template and consult the
	// cache before memory shedding and admission — hits and coalesced
	// followers consume neither a heap check nor a scheduler slot. From
	// here on the pipeline (if any) runs on the canonical form, which is
	// what makes response bodies byte-identical across isomorphic
	// submissions. The key carries the pinned snapshot's epoch, so entries
	// version out on every ingest.
	var ckey string
	var lead *flight
	if s.rcache != nil {
		if form, key, ok := pattern.Canonical(t); ok {
			t, ckey = form, resultKey(snap.Epoch(), req, key)
		}
	}
	if ckey != "" {
		var served bool
		if lead, served = s.cachedOrLead(w, r, q, req, ckey); served {
			return
		}
	}
	// land completes the leader's flight exactly once. Every path that
	// leaves without a body to publish lands nil, releasing followers to
	// fend for themselves — they can never wait on a dead leader.
	land := func(body []byte) {
		if lead != nil {
			s.flights.complete(ckey, lead, body)
			lead = nil
		}
	}
	defer land(nil)

	var resp MatchResponse
	if !s.runQuery(w, r, q, req, func(ctx context.Context, cfg core.Config, width int) (*core.Metrics, bool, error) {
		if h := testHookMatch; h != nil {
			h(req, width)
		}
		res, err := core.RunParallelContext(ctx, snap.Graph(), t, cfg, width)
		if err != nil && (res == nil || !res.Partial) {
			return nil, false, err
		}
		resp = buildMatchResponse(res, req, time.Since(q.start))
		return &res.Metrics, res.Partial, nil
	}) {
		return
	}

	outcome := outcomeOK
	if resp.Partial {
		outcome = outcomePartial
	}
	s.finish(r, q, outcome, http.StatusOK,
		slog.Int("k", req.K),
		slog.Int("prototypes", len(resp.Prototypes)),
		slog.Int64("labels", resp.Labels),
		slog.Bool("partial", resp.Partial))
	// Serialize once and serve the leader, the cache and every follower the
	// same bytes — warm responses are bit-identical to this cold one by
	// construction.
	body, err := json.Marshal(resp)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	body = append(body, '\n')
	// Publish before writing to this client: a slow or stalled leader
	// connection must not hold the coalesced followers. Partial results are
	// never cached or published — they reflect this query's budget, not the
	// graph.
	var publish []byte
	if lead != nil && !resp.Partial {
		s.rcache.put(ckey, body)
		publish = body
	}
	land(publish)
	writeRawJSON(w, body)
}

// cachedOrLead is /match's result-cache prologue for a cacheable query. It
// serves the request outright when the body is cached or a concurrent
// identical query (the flight's leader) delivers it, and reports served; if
// the wait outlives the query deadline the follower gets the usual timeout
// response. Otherwise the caller runs the pipeline — as the returned
// flight's leader, or, when a foreign leader failed or went partial, on its
// own (nil flight) rather than propagating someone else's error.
func (s *Server) cachedOrLead(w http.ResponseWriter, r *http.Request, q *request, req *MatchRequest, ckey string) (lead *flight, served bool) {
	body := s.rcache.get(ckey)
	outcome := outcomeCacheHit
	if body == nil {
		f, leader := s.flights.join(ckey)
		if leader {
			s.rcache.misses.Add(1)
			return f, false
		}
		wctx, wcancel := s.queryContext(r)
		defer wcancel()
		select {
		case <-f.done:
			if f.body == nil {
				return nil, false
			}
			body, outcome = f.body, outcomeCoalesced
		case <-wctx.Done():
			s.writeContextError(w, r, q, wctx.Err(), "wait for the coalesced leader exceeded query timeout", slog.Int("k", req.K))
			return nil, true
		}
	}
	s.rcache.hits.Add(1)
	s.finish(r, q, outcome, http.StatusOK, slog.Int("k", req.K))
	writeRawJSON(w, body)
	return nil, true
}

// buildMatchResponse translates a pipeline result to the wire shape.
// res.Graph is the snapshot the query ran on: pipeline vertex ids are
// internal (possibly degree-relabeled), the wire speaks external ids.
func buildMatchResponse(res *core.Result, req *MatchRequest, elapsed time.Duration) MatchResponse {
	resp := MatchResponse{
		Prototypes: make([]PrototypeSummary, 0, len(res.Set.Protos)),
		Vectors:    map[string][]int{},
		ElapsedMS:  elapsed.Milliseconds(),
		Partial:    res.Partial,
	}
	// exact maps each edit distance to whether its level completed.
	exact := make(map[int]bool, len(res.Levels))
	for _, lv := range res.Levels {
		exact[lv.Dist] = lv.Complete
		resp.Labels += lv.LabelsGenerated
	}
	for pi, p := range res.Set.Protos {
		ps := PrototypeSummary{Index: pi, Dist: p.Dist, Exact: exact[p.Dist]}
		if sol := res.Solutions[pi]; sol != nil {
			ps.Vertices = sol.Verts.Count()
			if req.Count {
				c := sol.MatchCount
				ps.MatchCount = &c
			}
		}
		resp.Prototypes = append(resp.Prototypes, ps)
	}
	if req.Vectors {
		// One key and one map insert per matching vertex; its vector is the
		// vertex's Rho row (Def. 3's match vector), prototypes ascending.
		g := res.Graph
		res.UnionVertices().ForEach(func(v int) {
			resp.Vectors[strconv.Itoa(int(g.ExternalID(graph.VertexID(v))))] = res.MatchVector(graph.VertexID(v))
		})
	}
	return resp
}

func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	q := s.begin("explore")
	req, t, ok := s.accept(w, r, q)
	if !ok {
		return
	}
	snap := s.snaps.Acquire()
	defer snap.Release()

	var resp ExploreResponse
	if !s.runQuery(w, r, q, req, func(ctx context.Context, cfg core.Config, width int) (*core.Metrics, bool, error) {
		cfg.CountMatches = false // exploration reports no counts
		res, err := core.RunTopDownContext(ctx, snap.Graph(), t, cfg, width)
		if err != nil {
			return nil, false, err
		}
		resp = ExploreResponse{
			FoundDist:          res.FoundDist,
			PrototypesSearched: res.PrototypesSearched,
			MatchingVertices:   res.MatchingVertices.Count(),
			ElapsedMS:          time.Since(q.start).Milliseconds(),
		}
		return &res.Metrics, false, nil
	}) {
		return
	}
	s.finish(r, q, outcomeOK, http.StatusOK,
		slog.Int("k", req.K),
		slog.Int("found_dist", resp.FoundDist))
	writeJSON(w, resp)
}

// handleStats serves the graph statistics computed once per epoch (at
// construction and after each ingest), so /stats is safe to poll as a
// health probe.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.stats.Load())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var cg cacheGauges
	if s.rcache != nil {
		cg.resultHits = s.rcache.hits.Load()
		cg.resultMisses = s.rcache.misses.Load()
		cg.resultEvictions = s.rcache.evictions.Load()
		cg.resultBytes, cg.resultEntries = s.rcache.stats()
	}
	if s.nlccShared != nil {
		cg.sharedHits = s.nlccShared.Hits()
		cg.sharedMisses = s.nlccShared.Misses()
		cg.sharedEvictions = s.nlccShared.Evictions()
		cg.sharedBytes = s.nlccShared.Bytes()
		cg.sharedSets = s.nlccShared.Sets()
	}
	var wg walGauges
	if s.cfg.WAL != nil {
		wg = sampleWALGauges(s.cfg.WAL.Stats())
	}
	s.metrics.writeProm(w, s.sched.inFlight(), s.sched.waiting(), s.mem.heapBytes(), cg, wg,
		s.snaps.Epoch(), s.snaps.Retired(), s.snaps.ReclaimedBytes())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// writeRawJSON serves a pre-serialized response body verbatim — the cache
// and single-flight paths, where byte-identity with the original response
// matters.
func writeRawJSON(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}
