// Package dist is the distributed runtime: an in-process reimplementation
// of the HavoqGT abstractions the paper's system is built on (§4) — a
// partitioned graph spread over P ranks, asynchronous vertex-centric
// visitor delivery (do_traversal / push), distributed quiescence detection,
// delegate handling for high-degree vertices, message accounting
// (intra-rank / inter-rank / inter-node), checkpoint-based load rebalancing
// and parallel prototype search on replicated candidate sets.
//
// Ranks are goroutines and messages are in-memory queue entries, so the
// engine reproduces the paper's distributed-execution *structure* (who
// sends how many messages where, how work balances across ranks) rather
// than wire-level transport. Per-vertex state arrays are only ever written
// by the owning rank, mirroring MPI ownership discipline.
//
// Delivery is exactly once: a visitor sent to a vertex lands in the
// owning rank's mailbox and is visited there, and a traversal ends when
// every queued visitor has been visited. The runtime models the paper's
// message counts, load balance and locality (§5.7), not a lossy network.
package dist

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"approxmatch/internal/graph"
)

// Partition selects the initial vertex-to-rank assignment strategy.
type Partition int

const (
	// PartitionBlock assigns contiguous vertex-id ranges per rank — the
	// ingestion-order default, which preserves the id-space locality real
	// graphs have (and therefore the load imbalance the paper's
	// rebalancing addresses).
	PartitionBlock Partition = iota
	// PartitionHash scatters vertices pseudo-randomly, trading locality
	// for static balance.
	PartitionHash
)

// Config shapes the simulated deployment.
type Config struct {
	// Ranks is the number of MPI-process stand-ins (goroutines).
	Ranks int
	// RanksPerNode groups ranks into compute nodes for message locality
	// accounting (the paper runs 36 ranks per node; Fig. 12 varies this).
	RanksPerNode int
	// DelegateThreshold marks vertices with degree >= threshold as
	// delegates whose neighbor broadcasts use one remote message per
	// destination rank instead of one per neighbor (HavoqGT's delegate
	// partitioned graph). 0 disables delegation.
	DelegateThreshold int
	// Partition selects the initial assignment (block by default).
	Partition Partition
	// InterRankDelay and InterNodeDelay, when set, are slept by the
	// receiving rank before processing a message of that locality class —
	// a measured (not modeled) simulation of shared-memory vs network
	// transfer latency. Rank goroutines sleep concurrently, so wall time
	// reflects each rank's exposed communication latency the way the
	// paper's asynchronous runtime would.
	InterRankDelay time.Duration
	InterNodeDelay time.Duration
}

// DefaultConfig returns a small deployment: 4 ranks, 2 per node.
func DefaultConfig() Config { return Config{Ranks: 4, RanksPerNode: 2} }

func (c Config) normalized() Config {
	if c.Ranks <= 0 {
		c.Ranks = 1
	}
	if c.RanksPerNode <= 0 {
		c.RanksPerNode = c.Ranks
	}
	return c
}

// Nodes returns the number of simulated compute nodes.
func (c Config) Nodes() int {
	c = c.normalized()
	return (c.Ranks + c.RanksPerNode - 1) / c.RanksPerNode
}

// nodeOf returns the simulated node of a rank. It normalizes exactly the
// way Nodes does, so the two always agree — including on a Config (or an
// Engine built by struct literal in tests) that never went through
// NewEngine's normalization, where a zero RanksPerNode used to divide by
// zero.
func (c Config) nodeOf(rank int) int {
	c = c.normalized()
	return rank / c.RanksPerNode
}

// PhaseStats counts messages by locality class within one phase.
type PhaseStats struct {
	// IntraRank messages stay on the sending rank.
	IntraRank atomic.Int64
	// InterRank messages cross ranks within one node (shared memory in a
	// real deployment).
	InterRank atomic.Int64
	// InterNode messages cross node boundaries (the network).
	InterNode atomic.Int64
}

// Total returns all messages in the phase.
func (p *PhaseStats) Total() int64 {
	return p.IntraRank.Load() + p.InterRank.Load() + p.InterNode.Load()
}

// Remote returns messages leaving the sending rank (the paper's "remote"
// in the §5.7 message table).
func (p *PhaseStats) Remote() int64 { return p.InterRank.Load() + p.InterNode.Load() }

// MessageStats aggregates per-phase message counters.
type MessageStats struct {
	mu     sync.Mutex
	phases map[string]*PhaseStats
}

// Phase returns (creating if needed) the counter for a phase name.
func (m *MessageStats) Phase(name string) *PhaseStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.phases == nil {
		m.phases = make(map[string]*PhaseStats)
	}
	p, ok := m.phases[name]
	if !ok {
		p = &PhaseStats{}
		m.phases[name] = p
	}
	return p
}

// Phases returns the phase names recorded so far.
func (m *MessageStats) Phases() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.phases))
	for name := range m.phases {
		out = append(out, name)
	}
	return out
}

// Total sums messages across phases.
func (m *MessageStats) Total() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var t int64
	for _, p := range m.phases {
		t += p.Total()
	}
	return t
}

// Remote sums remote (off-rank) messages across phases.
func (m *MessageStats) Remote() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var t int64
	for _, p := range m.phases {
		t += p.Remote()
	}
	return t
}

// InterNodeTotal sums inter-node messages across phases.
func (m *MessageStats) InterNodeTotal() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var t int64
	for _, p := range m.phases {
		t += p.InterNode.Load()
	}
	return t
}

// Engine is one deployment over a background graph.
type Engine struct {
	g     *graph.Graph
	cfg   Config
	owner []int32 // vertex -> rank
	// delegate marks high-degree vertices whose broadcasts use the
	// delegate fan-out.
	delegate []bool
	// Stats records message counters across all traversals.
	Stats MessageStats
	// ComputePerRank counts visitor executions per rank, the load-balance
	// signal (Fig. 9a).
	ComputePerRank []atomic.Int64
}

// NewEngine partitions g over the configured ranks with block (contiguous
// vertex-id range) partitioning — the common ingestion-order default. Real
// graphs have heavy id-space locality (webgraphs are crawled domain by
// domain), which is exactly why the paper's reshuffle-based load balancing
// matters; SetOwners/BalancedOwners install a balanced assignment.
// NewEngine is the single construction entry point that normalizes cfg.
func NewEngine(g *graph.Graph, cfg Config) *Engine {
	cfg = cfg.normalized()
	e := &Engine{
		g:              g,
		cfg:            cfg,
		owner:          make([]int32, g.NumVertices()),
		delegate:       make([]bool, g.NumVertices()),
		ComputePerRank: make([]atomic.Int64, cfg.Ranks),
	}
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		switch cfg.Partition {
		case PartitionHash:
			e.owner[v] = int32(hashVertex(graph.VertexID(v)) % uint32(cfg.Ranks))
		default:
			e.owner[v] = blockOwner(v, cfg.Ranks, n)
		}
		if cfg.DelegateThreshold > 0 && g.Degree(graph.VertexID(v)) >= cfg.DelegateThreshold {
			e.delegate[v] = true
		}
	}
	return e
}

// blockOwner maps vertex v to its contiguous-range rank. The product
// v×ranks is computed in int64: in int it overflows for large graphs on
// 32-bit platforms (v×ranks > 2³¹ already at |V|=2²⁵, 64 ranks) and
// mis-assigns owners.
func blockOwner(v, ranks, n int) int32 {
	if n <= 0 {
		return 0
	}
	return int32(int64(v) * int64(ranks) / int64(n))
}

// hashVertex is a Fibonacci-style mixer giving a stable pseudo-random rank
// assignment.
func hashVertex(v graph.VertexID) uint32 {
	x := uint32(v) * 2654435761
	x ^= x >> 16
	return x
}

// Graph returns the underlying background graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Cfg returns the deployment configuration.
func (e *Engine) Cfg() Config { return e.cfg }

// Owner returns the rank owning vertex v.
func (e *Engine) Owner(v graph.VertexID) int { return int(e.owner[v]) }

// IsDelegate reports whether v uses delegate fan-out.
func (e *Engine) IsDelegate(v graph.VertexID) bool { return e.delegate[v] }

// nodeOf returns the simulated node of a rank; it delegates to the
// Config's normalized grouping so it agrees with Cfg().Nodes() even when
// the Engine was built without NewEngine.
func (e *Engine) nodeOf(rank int) int { return e.cfg.nodeOf(rank) }

// SetOwners replaces the vertex-to-rank assignment (load rebalancing).
func (e *Engine) SetOwners(owner []int32) {
	if len(owner) != len(e.owner) {
		panic(fmt.Sprintf("dist: owner slice length %d, want %d", len(owner), len(e.owner)))
	}
	copy(e.owner, owner)
}

// Owners returns a copy of the current assignment.
func (e *Engine) Owners() []int32 {
	return append([]int32(nil), e.owner...)
}

// locality classes for message deliveries.
const (
	classIntraRank = iota
	classInterRank
	classInterNode
)

// envelope is one mailbox entry: a visitor payload addressed to target,
// tagged with the locality class of the message that carried it (seeds
// are intra-rank).
type envelope struct {
	target graph.VertexID
	data   any
	class  uint8
}

// mailbox is one rank's visitor queue.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	q    []envelope
}

// traversal carries the live state of one Traverse call.
type traversal struct {
	e     *Engine
	phase *PhaseStats
	boxes []*mailbox
	// pending counts visitors enqueued but not yet visited; the traversal
	// has quiesced when it reaches zero.
	pending atomic.Int64
}

// Ctx is handed to visit callbacks: it attributes sends to the executing
// rank and exposes delegate-aware neighbor broadcast.
type Ctx struct {
	t    *traversal
	Rank int
}

// push queues a visitor at target's owner. Seeds (HavoqGT's do_traversal
// local creations) go in as intra-rank and uncounted; Send and
// SendToNeighbors account a message before pushing it.
func (t *traversal) push(target graph.VertexID, data any, class uint8) {
	t.pending.Add(1)
	b := t.boxes[t.e.owner[target]]
	b.mu.Lock()
	b.q = append(b.q, envelope{target: target, data: data, class: class})
	b.mu.Unlock()
	b.cond.Signal()
}

// account records one message from rank `from` to rank `to` and returns
// its locality class.
func (t *traversal) account(from, to int) uint8 {
	switch {
	case from == to:
		t.phase.IntraRank.Add(1)
		return classIntraRank
	case t.e.nodeOf(from) == t.e.nodeOf(to):
		t.phase.InterRank.Add(1)
		return classInterRank
	default:
		t.phase.InterNode.Add(1)
		return classInterNode
	}
}

// Send delivers a visitor to target's owner, counted from the current rank.
func (c *Ctx) Send(target graph.VertexID, data any) {
	c.t.push(target, data, c.t.account(c.Rank, int(c.t.e.owner[target])))
}

// SendToNeighbors delivers mk(i, w) to every neighbor w of v accepted by
// filter. For delegate vertices the broadcast costs one remote message per
// destination rank (HavoqGT's delegate broadcast tree) plus local fan-out;
// for regular vertices it costs one message per neighbor.
func (c *Ctx) SendToNeighbors(v graph.VertexID, filter func(i int, w graph.VertexID) bool, mk func(i int, w graph.VertexID) any) {
	t := c.t
	if !t.e.delegate[v] {
		for i, w := range t.e.g.Neighbors(v) {
			if filter(i, w) {
				c.Send(w, mk(i, w))
			}
		}
		return
	}
	touched := make(map[int]bool)
	for i, w := range t.e.g.Neighbors(v) {
		if !filter(i, w) {
			continue
		}
		dst := int(t.e.owner[w])
		if dst != c.Rank && !touched[dst] {
			touched[dst] = true
			t.account(c.Rank, dst) // one hop on the broadcast tree
		}
		t.phase.IntraRank.Add(1) // local fan-out at the destination
		t.push(w, mk(i, w), classIntraRank)
	}
}

// classDelay returns the injected latency of a locality class.
func (e *Engine) classDelay(class uint8) time.Duration {
	switch class {
	case classInterRank:
		return e.cfg.InterRankDelay
	case classInterNode:
		return e.cfg.InterNodeDelay
	default:
		return 0
	}
}

// Traverse runs one asynchronous traversal: init seeds visitors (uncounted
// local creations — HavoqGT's do_traversal), then every rank processes its
// mailbox, with visits allowed to push further visitors, until distributed
// quiescence. phaseName selects the message counter bucket. Delivery is
// exactly once; a rank visits its mailbox in arrival order.
func (e *Engine) Traverse(phaseName string, init func(seed func(target graph.VertexID, data any)), visit func(ctx *Ctx, target graph.VertexID, data any)) {
	t := &traversal{
		e:     e,
		phase: e.Stats.Phase(phaseName),
		boxes: make([]*mailbox, e.cfg.Ranks),
	}
	for i := range t.boxes {
		t.boxes[i] = &mailbox{}
		t.boxes[i].cond = sync.NewCond(&t.boxes[i].mu)
	}

	init(func(target graph.VertexID, data any) { t.push(target, data, classIntraRank) })
	if t.pending.Load() == 0 {
		return
	}

	var wg sync.WaitGroup
	for rank := 0; rank < e.cfg.Ranks; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			ctx := &Ctx{t: t, Rank: rank}
			b := t.boxes[rank]
			// Latency debt is accumulated per rank and slept in batches:
			// sub-millisecond sleeps are quantized by the OS scheduler, so
			// batching keeps the injected totals accurate. Residual debt
			// below the batching threshold is flushed when the rank exits
			// — without the flush a short traversal under-reports its
			// configured inter-rank/inter-node latency.
			lm := latencyMeter{sleep: time.Sleep}
			defer lm.flush()
			for {
				b.mu.Lock()
				for len(b.q) == 0 && t.pending.Load() > 0 {
					b.cond.Wait()
				}
				if len(b.q) == 0 {
					b.mu.Unlock()
					return
				}
				env := b.q[0]
				b.q = b.q[1:]
				b.mu.Unlock()

				lm.add(e.classDelay(env.class))
				e.ComputePerRank[rank].Add(1)
				visit(ctx, env.target, env.data)
				if t.pending.Add(-1) == 0 {
					// Quiescence: wake every rank so idle workers observe
					// pending == 0 and exit.
					t.wakeAll()
				}
			}
		}(rank)
	}
	wg.Wait()
}

// wakeAll broadcasts every mailbox condition so idle ranks re-check the
// exit predicate. Broadcasting under each box's lock closes the
// check-then-wait window.
func (t *traversal) wakeAll() {
	for _, b := range t.boxes {
		b.mu.Lock()
		b.cond.Broadcast()
		b.mu.Unlock()
	}
}

// ParallelRanks runs fn(rank) concurrently on every rank and waits — the
// compute-only barrier phases between traversals (local re-evaluation in
// LCC, initiator elimination in NLCC).
func (e *Engine) ParallelRanks(fn func(rank int)) {
	var wg sync.WaitGroup
	for rank := 0; rank < e.cfg.Ranks; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			fn(rank)
		}(rank)
	}
	wg.Wait()
}

// latencyMeter batches injected communication latency: sub-millisecond
// sleeps are quantized by the OS scheduler, so debt accumulates until it
// crosses a millisecond, and any residue is flushed when the rank exits so
// short traversals do not silently under-report the configured latency.
type latencyMeter struct {
	debt  time.Duration
	sleep func(time.Duration)
}

func (l *latencyMeter) add(d time.Duration) {
	if d <= 0 {
		return
	}
	l.debt += d
	if l.debt >= time.Millisecond {
		l.sleep(l.debt)
		l.debt = 0
	}
}

// flush sleeps off any residual debt below the batching threshold.
func (l *latencyMeter) flush() {
	if l.debt > 0 {
		l.sleep(l.debt)
		l.debt = 0
	}
}
