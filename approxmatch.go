// Package approxmatch is a library for approximate pattern matching in
// large vertex-labeled graphs with 100% precision and 100% recall
// guarantees, reproducing the system of Reza, Ripeanu, Sanders and Pearce,
// "Approximate Pattern Matching in Massive Graphs with Precision and Recall
// Guarantees" (SIGMOD 2020).
//
// Given a background graph G, a small labeled search template H0 (possibly
// with mandatory edges) and an edit-distance budget k, Match finds — for
// every connected prototype of H0 within k edge deletions — exactly the
// vertices and edges of G participating in at least one exact match, and
// labels every vertex with the prototypes it matches (a per-vertex binary
// match vector usable as machine-learning features).
//
// The engine implements the paper's pipeline: maximum-candidate-set
// pruning, local and non-local constraint checking (cycle, path and
// template-driven-search token walks), bottom-up search-space reduction via
// the containment rule, work recycling across prototypes, and an exact
// final verification phase. Explore provides the top-down exploratory mode
// (relax the template until matches appear); CountMotifs applies the
// pipeline to network-motif counting; MatchDistributed runs the same
// pipeline on the in-process distributed runtime. For live graphs,
// ApplyDelta/NewSnapshotStore publish mutation batches as immutable epoch
// snapshots and MatchIncremental maintains a Match result across a delta —
// bit-identical to recomputing, at the cost of re-running only a bounded
// region around the change.
package approxmatch

import (
	"context"

	"approxmatch/internal/core"
	"approxmatch/internal/dist"
	"approxmatch/internal/graph"
	"approxmatch/internal/motif"
	"approxmatch/internal/pattern"
	"approxmatch/internal/prototype"
)

// Core graph types, re-exported for API users.
type (
	// Graph is a vertex-labeled undirected background graph in CSR form.
	Graph = graph.Graph
	// GraphBuilder accumulates vertices and edges into a Graph.
	GraphBuilder = graph.Builder
	// VertexID identifies a background-graph vertex.
	VertexID = graph.VertexID
	// Label is a discrete vertex label.
	Label = graph.Label
	// Template is the search template H0: a small connected labeled graph
	// with optional/mandatory edges.
	Template = pattern.Template
	// TemplateEdge is an edge between template vertex indices.
	TemplateEdge = pattern.Edge
	// Prototype is one edit-distance variant of the template.
	Prototype = prototype.Prototype
	// PrototypeSet is the full prototype set P_k with its edit-distance
	// DAG.
	PrototypeSet = prototype.Set
	// Result is the output of Match: per-prototype solution subgraphs,
	// per-vertex match vectors and work metrics.
	Result = core.Result
	// Solution is one prototype's exact solution subgraph.
	Solution = core.Solution
	// ExploreResult is the output of the top-down exploratory mode.
	ExploreResult = core.TopDownResult
	// Options tune the pipeline's optimizations; zero value disables all
	// of them. Use DefaultOptions for the fully optimized configuration.
	Options = core.Config
	// Budget bounds a single run's work units, auxiliary bytes and wall
	// time (Options.Budget). The zero value is unlimited. An exhausted
	// budget stops the bottom-up pipeline between edit-distance levels and
	// returns a partial Result (Result.Partial) alongside
	// ErrBudgetExhausted: completed levels keep the full precision/recall
	// guarantee, unfinished ones are reported unknown.
	Budget = core.Budget
	// MotifCounts maps canonical pattern codes to induced subgraph counts.
	MotifCounts = motif.Counts
)

// ErrBudgetExhausted reports (via errors.Is) that a run stopped because its
// Budget ran out. Match and MatchDistributed return it alongside a non-nil
// partial Result; modes without an anytime-partial contract (Explore,
// MatchFlips) return it alone.
var ErrBudgetExhausted = core.ErrBudgetExhausted

// SharedCache is the NLCC work-recycling store. Normally each Match run
// builds a private one; NewSharedCache plus Options.SharedCache lets a
// batch of runs over the same graph recycle constraint-walk verdicts across
// the query boundary (the paper's Obs. 2 lifted across queries). Cache
// content never affects results — exact verification restores precision —
// so sharing is correctness-neutral by construction.
type SharedCache = core.Cache

// NewSharedCache returns a work-recycling store for runs over g, byte-capped
// at maxBytes (LRU eviction; 0 = unbounded), to be injected via
// Options.SharedCache. It is safe for concurrent runs.
func NewSharedCache(g *Graph, maxBytes int64) *SharedCache {
	return core.NewCacheBytes(g.NumVertices(), maxBytes)
}

// NewGraphBuilder returns a builder pre-sized for n vertices (label 0).
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// NewTemplate builds a search template from per-vertex labels and edges;
// all edges are optional (deletable).
func NewTemplate(labels []Label, edges []TemplateEdge) (*Template, error) {
	return pattern.New(labels, edges)
}

// NewTemplateWithMandatory builds a template with mandatory[i] pinning
// edges[i] against deletion.
func NewTemplateWithMandatory(labels []Label, edges []TemplateEdge, mandatory []bool) (*Template, error) {
	return pattern.NewWithMandatory(labels, edges, mandatory)
}

// NewTemplateEdgeLabeled builds a template whose edges also constrain
// background edge labels (Wildcard accepts any); edgeLabels and mandatory
// may each be nil.
func NewTemplateEdgeLabeled(labels []Label, edges []TemplateEdge, edgeLabels []Label, mandatory []bool) (*Template, error) {
	return pattern.NewEdgeLabeled(labels, edges, edgeLabels, mandatory)
}

// Wildcard is the template label (for vertices or edges) that matches any
// background label — topology-only constraints.
const Wildcard = pattern.Wildcard

// FeatureOptions re-exports the ML feature export controls
// (Result.WriteFeaturesCSV, Result.ParticipationCounts).
type FeatureOptions = core.FeatureOptions

// DefaultOptions returns the fully optimized configuration for
// edit-distance k (work recycling, frequency-based constraint ordering and
// label-pair containment refinement all enabled).
func DefaultOptions(k int) Options { return core.DefaultConfig(k) }

// Match runs the bottom-up approximate-matching pipeline: it returns, for
// every prototype of t within opts.EditDistance deletions, the exact
// solution subgraph, and labels every vertex of g with its prototype
// memberships (Result.Rho, Result.MatchVector).
func Match(g *Graph, t *Template, opts Options) (*Result, error) {
	return core.Run(g, t, opts)
}

// MatchContext is Match honoring ctx: cancellation and deadline expiry stop
// the pipeline (cheap periodic checks inside every phase) and the call
// returns ctx.Err(). Results are identical to Match's when ctx never fires.
func MatchContext(ctx context.Context, g *Graph, t *Template, opts Options) (*Result, error) {
	return core.RunContext(ctx, g, t, opts)
}

// MatchParallelContext is MatchContext with level-parallel prototype search
// (§4's multi-level parallelism): up to parallelism prototypes of each
// edit-distance level are searched concurrently. Results are bit-identical
// to Match's.
func MatchParallelContext(ctx context.Context, g *Graph, t *Template, opts Options, parallelism int) (*Result, error) {
	return core.RunParallelContext(ctx, g, t, opts, parallelism)
}

// Explore runs the top-down exploratory mode (§5.5 of the paper): starting
// from the exact template, the edit distance grows one deletion at a time
// until the first matches appear or opts.EditDistance is exhausted.
func Explore(g *Graph, t *Template, opts Options) (*ExploreResult, error) {
	return core.RunTopDownContext(context.Background(), g, t, opts, 1)
}

// ExploreContext is Explore honoring ctx (see MatchContext).
func ExploreContext(ctx context.Context, g *Graph, t *Template, opts Options) (*ExploreResult, error) {
	return core.RunTopDownContext(ctx, g, t, opts, 1)
}

// Prototypes generates the prototype set P_k of t without searching.
func Prototypes(t *Template, k int) (*PrototypeSet, error) {
	return prototype.Generate(t, k)
}

// FlipResult re-exports the edge-flip search output.
type FlipResult = core.FlipResult

// MatchFlips searches t and every single-edge-flip variant (one optional
// edge swapped for an absent edge, §3.1's flip extension) exactly.
func MatchFlips(g *Graph, t *Template, opts Options) (*FlipResult, error) {
	return core.MatchFlipsContext(context.Background(), g, t, opts)
}

// MatchFlipsContext is MatchFlips honoring ctx (see MatchContext).
func MatchFlipsContext(ctx context.Context, g *Graph, t *Template, opts Options) (*FlipResult, error) {
	return core.MatchFlipsContext(ctx, g, t, opts)
}

// CountMotifs counts connected vertex-induced subgraph classes of the given
// size via the matching pipeline (labels are ignored). The keys of the
// returned map are canonical pattern codes; pair it with MotifPatterns to
// decode them.
func CountMotifs(g *Graph, size int) (MotifCounts, error) {
	counts, _, err := motif.PipelineCounts(g, size, core.DefaultConfig(0))
	return counts, err
}

// MotifPatterns returns the prototype set of the size-clique — one entry
// per possible connected motif — so callers can map canonical codes in
// MotifCounts back to concrete patterns.
func MotifPatterns(size int) (*PrototypeSet, error) {
	clique := motif.Clique(size)
	return prototype.Generate(clique, clique.NumEdges())
}

// Distributed deployment types, re-exported.
type (
	// DistConfig shapes the simulated deployment (ranks, ranks per node,
	// delegate threshold).
	DistConfig = dist.Config
	// DistOptions tune the distributed pipeline: an embedded Options plus
	// the runtime's own Rebalance. Options fields the distributed runtime
	// cannot honour (Restrict, a private CacheBytes cap) are rejected, not
	// ignored.
	DistOptions = dist.Options
	// DistResult is the distributed run's output, a Result bit-exact with
	// Match's; its Metrics count the finalization work.
	DistResult = core.Result
	// DistEngine is a deployment of a graph over simulated ranks.
	DistEngine = dist.Engine
)

// NewDistEngine partitions g over a simulated deployment.
func NewDistEngine(g *Graph, cfg DistConfig) *DistEngine { return dist.NewEngine(g, cfg) }

// ReplicaSet re-exports the checkpoint/reload replica manager: prune once,
// reload the small subgraph onto several deployments and search prototypes
// across them in parallel (§4 / §5.4 of the paper).
type ReplicaSet = dist.ReplicaSet

// NewReplicaSet checkpoints the active subgraph of a pruned state (for
// example Result.Candidate) and reloads it onto `replicas` deployments.
func NewReplicaSet(g *Graph, pruned *core.State, replicas int, cfg DistConfig) (*ReplicaSet, error) {
	return dist.NewReplicaSet(g, pruned, replicas, cfg)
}

// MatchDistributed runs the pipeline on the distributed runtime: the same
// results as Match, produced by message-passing ranks with full message
// accounting (engine.Stats).
func MatchDistributed(e *DistEngine, t *Template, opts DistOptions) (*DistResult, error) {
	return dist.Run(e, t, opts)
}

// MatchDistributedContext is MatchDistributed honoring ctx (see
// MatchContext).
func MatchDistributedContext(ctx context.Context, e *DistEngine, t *Template, opts DistOptions) (*DistResult, error) {
	return dist.RunContext(ctx, e, t, opts)
}

// Live-graph ingest types, re-exported. A Delta is a batch of edge
// inserts/deletes and vertex relabels; ApplyDelta builds the next-epoch
// graph without mutating the current one, and a SnapshotStore publishes
// epochs atomically so concurrent readers are never disturbed.
type (
	// Delta is a batch of graph mutations (edge inserts/deletes, vertex
	// relabels) over a fixed vertex set.
	Delta = graph.Delta
	// DeltaBuilder accumulates mutations into a Delta.
	DeltaBuilder = graph.DeltaBuilder
	// Snapshot is one immutable graph epoch, pinned by a reader.
	Snapshot = graph.Snapshot
	// SnapshotStore publishes epoch-swapped immutable graph snapshots.
	SnapshotStore = graph.SnapshotStore
	// DeltaStats reports the locality of one incremental maintenance run
	// (radius, changed/affected/region vertex counts).
	DeltaStats = core.DeltaStats
)

// NewDeltaBuilder returns an empty mutation-batch builder.
func NewDeltaBuilder() *DeltaBuilder { return graph.NewDeltaBuilder() }

// ApplyDelta validates d against g and returns the next-epoch graph plus the
// changed-vertex list (the seed set for MatchIncremental). g is never
// mutated; validation failures apply nothing.
func ApplyDelta(g *Graph, d *Delta) (*Graph, []VertexID, error) {
	return graph.ApplyDelta(g, d)
}

// NewSnapshotStore publishes g as epoch 0 of an epoch-swapped snapshot
// store: readers pin immutable epochs wait-free while writers apply deltas.
func NewSnapshotStore(g *Graph) *SnapshotStore { return graph.NewSnapshotStore(g) }

// RelabelByDegree reorders g's internal vertex ids by descending degree — a
// cache-locality optimization for hub-heavy graphs — keeping the original
// ids as the external vocabulary: Graph.ExternalID/InternalID translate,
// and match enumeration callbacks plus feature/TSV exports speak external
// ids automatically. Deltas built in external ids must pass through
// TranslateDeltaToInternal before ApplyDelta or SnapshotStore.Apply.
func RelabelByDegree(g *Graph) *Graph { return graph.RelabelByDegree(g) }

// TranslateDeltaToInternal rewrites a delta's external vertex ids into g's
// internal id space (a no-op for graphs that were never relabeled).
func TranslateDeltaToInternal(g *Graph, d *Delta) *Delta {
	return graph.TranslateDeltaToInternal(g, d)
}

// MatchIncremental maintains prev — a complete Match result on the pre-delta
// graph — across a graph delta, returning a Result bit-identical to a
// from-scratch Match on newG at the cost of two pipeline runs restricted to
// the dirty region around the change. newG and changed come from ApplyDelta;
// opts must use the same EditDistance and CountMatches as prev's run. The
// returned DeltaStats reports how local the maintenance was.
func MatchIncremental(prev *Result, newG *Graph, changed []VertexID, opts Options) (*Result, *DeltaStats, error) {
	return core.RunIncrementalContext(context.Background(), prev, newG, changed, opts)
}

// MatchIncrementalContext is MatchIncremental honoring ctx (see
// MatchContext).
func MatchIncrementalContext(ctx context.Context, prev *Result, newG *Graph, changed []VertexID, opts Options) (*Result, *DeltaStats, error) {
	return core.RunIncrementalContext(ctx, prev, newG, changed, opts)
}

// ConnectedComponents labels each vertex with a component id and returns
// the component count.
func ConnectedComponents(g *Graph) ([]int, int) { return graph.ConnectedComponents(g) }

// LargestComponent returns the subgraph induced by the largest connected
// component and the mapping back to original vertex ids (increasing).
func LargestComponent(g *Graph) (*Graph, []VertexID) { return graph.LargestComponent(g) }
