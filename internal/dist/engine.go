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
// Message delivery sits behind a transport seam. The default transport is
// perfect (exactly-once, in order, immediate); configuring Config.Faults
// switches Traverse onto a fault-tolerant path — sequence-numbered sends,
// per-(phase, sender) receiver dedup, ack/retry with capped backoff,
// quiescence over acknowledged work, and per-rank checkpoint/restore for
// injected crashes — that keeps results bit-identical under an injectable
// chaos schedule of message drops, duplications, reorders, delays, rank
// stalls and rank crashes.
package dist

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"approxmatch/internal/constraint"
	"approxmatch/internal/core"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
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
	// Faults, when non-nil, switches every Traverse onto the
	// fault-tolerant transport and injects the configured fault schedule
	// (see Faults). An all-zero Faults enables the dedup/ack machinery
	// with no injected faults.
	Faults *Faults
	// TCP, when non-nil, routes every cross-rank envelope over real
	// loopback TCP sockets through the wire codec (see TCPOptions). It
	// implies the fault-tolerant path — normalized installs an all-zero
	// Faults if none is configured, because a socket can genuinely lose
	// frames and the ack/retransmit machinery is what recovers them. An
	// engine with TCP set owns kernel resources; call Engine.Close when
	// done with it.
	TCP *TCPOptions
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
	if c.TCP != nil && c.Faults == nil {
		// The socket path requires the at-least-once machinery: injected
		// (or organic) connection failures lose frames, and only the
		// ack/retransmit protocol gets them back.
		c.Faults = &Faults{}
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

// MessageStats aggregates per-phase message counters plus the engine-wide
// fault-plane counters. Logical messages are counted once per phase
// regardless of retransmissions; retries, redeliveries and acks are
// control traffic tracked in Faults.
type MessageStats struct {
	mu     sync.Mutex
	phases map[string]*PhaseStats
	// Faults counts fault-plane events (injected faults, retries,
	// redeliveries, checkpoints, crashes, restores, stalls).
	Faults FaultStats
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

	// travGen numbers fault-tolerant traversal attempts engine-wide; the
	// TCP reader uses it to drop frames from finished or crashed attempts
	// whose sequence numbers would collide with the current dedup space.
	travGen atomic.Uint64
	// wireTpl/wireWalk are the walk binding of the traversal about to run
	// (set by nlccDist, nil otherwise): token and walk-ack payloads encode
	// only their variable part and re-attach these canonical pointers on
	// decode. Written and read on the single goroutine that issues
	// traversals, never from rank goroutines.
	wireTpl  *pattern.Template
	wireWalk *constraint.Walk
	// net is the lazily created TCP fabric (Config.TCP only).
	netOnce sync.Once
	net     *tcpNet
	netErr  error
}

// ensureNet creates the TCP fabric on first use.
func (e *Engine) ensureNet() (*tcpNet, error) {
	e.netOnce.Do(func() { e.net, e.netErr = newTCPNet(e) })
	return e.net, e.netErr
}

// Close releases the engine's socket resources (TCP listeners,
// connections, reader goroutines). Engines without Config.TCP hold no
// kernel resources and need no Close. Idempotent.
func (e *Engine) Close() {
	e.netOnce.Do(func() {}) // settle the fabric pointer
	if e.net != nil {
		e.net.close()
	}
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

// mailbox is one rank's visitor queue.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	q    []envelope
}

// fault-tolerant traversal attempt outcomes (traversal.state).
const (
	ftRunning int32 = iota
	ftCrashed
	ftDeadline
)

// traversal carries the live state of one Traverse attempt.
type traversal struct {
	e         *Engine
	phase     *PhaseStats
	phaseName string
	boxes     []*mailbox
	// pending counts logical work not yet complete: on the perfect path a
	// message is complete when its visit returns; on the fault-tolerant
	// path a transported message is complete only when its ack reaches
	// the sender (quiescence over acknowledged work), and a seed when its
	// visit returns.
	pending atomic.Int64
	tr      transport

	// Fault-tolerant fields (unused on the perfect path).
	f         *Faults
	ft        bool
	send      []*senderState
	recv      []*recvState
	state     atomic.Int32
	abortCh   chan struct{}
	abortOnce sync.Once
	ct        *chaosTransport // non-nil only when message faults are injected
	// gen is this attempt's engine-wide generation number, carried in
	// every wire envelope; ws is the codec session resolving walk payloads
	// (both set on the fault-tolerant path only).
	gen uint64
	ws  wireSession
}

// Ctx is handed to visit callbacks: it attributes sends to the executing
// rank and exposes delegate-aware neighbor broadcast.
type Ctx struct {
	t    *traversal
	Rank int
}

// push appends env to rank dst's mailbox.
func (t *traversal) push(dst int, env envelope) {
	b := t.boxes[dst]
	b.mu.Lock()
	b.q = append(b.q, env)
	b.mu.Unlock()
	b.cond.Signal()
}

// pushAt inserts env at position pos (mod queue length) — the chaos
// transport's reorder primitive.
func (t *traversal) pushAt(dst int, env envelope, pos int) {
	b := t.boxes[dst]
	b.mu.Lock()
	n := len(b.q) + 1
	pos %= n
	if pos < 0 {
		pos += n
	}
	b.q = append(b.q, envelope{})
	copy(b.q[pos+1:], b.q[pos:])
	b.q[pos] = env
	b.mu.Unlock()
	b.cond.Signal()
}

// enqueue seeds a visitor at target's owner (uncounted local creation —
// HavoqGT's do_traversal). Seeds bypass the fault plane: they are
// in-process constructor calls, not messages.
func (t *traversal) enqueue(target graph.VertexID, data any) {
	t.pending.Add(1)
	t.push(int(t.e.owner[target]), envelope{target: target, data: data, class: classIntraRank, from: -1})
}

// dispatch routes one accounted message from rank `from` to target's
// owner: direct mailbox append on the perfect path, sequence-numbered
// tracked send on the fault-tolerant path.
func (t *traversal) dispatch(from int, target graph.VertexID, data any, class uint8) {
	if !t.ft {
		t.pending.Add(1)
		t.push(int(t.e.owner[target]), envelope{target: target, data: data, class: class, from: -1})
		return
	}
	s := t.send[from]
	s.nextSeq++ // sends happen only on the owning rank's goroutine
	seq := s.nextSeq
	env := envelope{target: target, data: data, class: class, from: int32(from), seq: seq}
	dst := int(t.e.owner[target])
	t.pending.Add(1)
	s.mu.Lock()
	s.unacked[seq] = &outstanding{env: env, dst: dst, attempts: 1, nextRetry: time.Now().Add(t.f.RetryInterval)}
	s.mu.Unlock()
	t.tr.deliver(dst, env, faultKey{src: from, seq: seq, attempt: 1})
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
	class := c.t.account(c.Rank, int(c.t.e.owner[target]))
	c.t.dispatch(c.Rank, target, data, class)
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
		t.dispatch(c.Rank, w, mk(i, w), classIntraRank)
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

// TraverseHooks let a traversal's caller participate in crash recovery:
// Checkpoint serializes the durable per-vertex state rank owns, taken at
// the start of every traversal attempt (the engine's finest level
// boundary), and Restore wipes whatever the crash left of that rank's
// state and rebuilds it from the checkpoint bytes before the traversal
// restarts. Both are consulted only when Config.Faults configures a
// CrashEvent.
type TraverseHooks struct {
	Checkpoint func(rank int) []byte
	Restore    func(rank int, data []byte)
}

// Traverse runs one asynchronous traversal: init seeds visitors (uncounted
// local creations — HavoqGT's do_traversal), then every rank processes its
// mailbox, with visits allowed to push further visitors, until distributed
// quiescence. phaseName selects the message counter bucket.
//
// With Config.Faults set, delivery is at-least-once over the chaos
// transport and quiescence counts acknowledged work; a traversal that
// cannot quiesce before Faults.Deadline aborts the pipeline with
// ErrQuiescenceDeadline (recovered into an ordinary error by the Run*
// entry points via core.RecoverCancel).
func (e *Engine) Traverse(phaseName string, init func(seed func(target graph.VertexID, data any)), visit func(ctx *Ctx, target graph.VertexID, data any)) {
	e.traverseH(phaseName, nil, init, visit)
}

// traverseH is Traverse with crash-recovery hooks.
func (e *Engine) traverseH(phaseName string, hooks *TraverseHooks, init func(seed func(target graph.VertexID, data any)), visit func(ctx *Ctx, target graph.VertexID, data any)) {
	if e.cfg.Faults == nil {
		e.runPerfect(phaseName, init, visit)
		return
	}
	if err := e.runFT(phaseName, hooks, init, visit); err != nil {
		core.Abort(err)
	}
}

// runPerfect is the zero-overhead exactly-once path (Config.Faults nil).
func (e *Engine) runPerfect(phaseName string, init func(seed func(target graph.VertexID, data any)), visit func(ctx *Ctx, target graph.VertexID, data any)) {
	t := &traversal{
		e:         e,
		phase:     e.Stats.Phase(phaseName),
		phaseName: phaseName,
		boxes:     make([]*mailbox, e.cfg.Ranks),
	}
	t.tr = perfectTransport{t}
	for i := range t.boxes {
		t.boxes[i] = &mailbox{}
		t.boxes[i].cond = sync.NewCond(&t.boxes[i].mu)
	}

	init(t.enqueue)
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
					// pending == 0 and exit. Broadcasting under each box's
					// lock closes the check-then-wait window.
					t.wakeAll()
				}
			}
		}(rank)
	}
	wg.Wait()
}

// runFT is the fault-tolerant path: at-least-once delivery with receiver
// dedup, ack/retry with capped backoff, quiescence over acknowledged work
// bounded by a deadline, and checkpoint/restart recovery for injected rank
// crashes. Each iteration of the outer loop is one traversal attempt; a
// crash discards the attempt, restores the crashed rank's owned state from
// its checkpoint and re-runs init against unchanged durable state, which
// makes recovery bit-exact (traversal effects are idempotent functions of
// the durable state, so a partial attempt's surviving effects are a subset
// of the re-run's).
func (e *Engine) runFT(phaseName string, hooks *TraverseHooks, init func(seed func(target graph.VertexID, data any)), visit func(ctx *Ctx, target graph.VertexID, data any)) error {
	fv := e.cfg.Faults.withDefaults()
	f := &fv
	crashesLeft := 0
	if f.Crash != nil {
		crashesLeft = f.Crash.Times
		if crashesLeft <= 0 {
			crashesLeft = 1
		}
	}
	var deadline time.Time
	if f.Deadline > 0 {
		deadline = time.Now().Add(f.Deadline)
	}
	for attempt := 1; ; attempt++ {
		t := &traversal{
			e:         e,
			phase:     e.Stats.Phase(phaseName),
			phaseName: phaseName,
			boxes:     make([]*mailbox, e.cfg.Ranks),
			f:         f,
			ft:        true,
			send:      make([]*senderState, e.cfg.Ranks),
			recv:      make([]*recvState, e.cfg.Ranks),
			abortCh:   make(chan struct{}),
		}
		for i := range t.boxes {
			t.boxes[i] = &mailbox{}
			t.boxes[i].cond = sync.NewCond(&t.boxes[i].mu)
			t.send[i] = &senderState{unacked: make(map[uint64]*outstanding)}
			t.recv[i] = &recvState{seen: make(map[sendKey]struct{})}
		}
		t.gen = e.travGen.Add(1)
		t.ws = wireSession{gen: t.gen, tpl: e.wireTpl, walk: e.wireWalk, vertices: e.g.NumVertices()}
		var base sink = mailboxSink{t}
		if e.cfg.TCP != nil {
			n, err := e.ensureNet()
			if err != nil {
				return err
			}
			base = tcpSink{n: n, t: t}
			// Attach this attempt to the fabric: readers decode into its
			// mailboxes from here on, and drop frames of earlier attempts
			// by generation.
			n.cur.Store(t)
		}
		if f.Drop > 0 || f.Duplicate > 0 || f.Reorder > 0 || f.Delay > 0 {
			t.ct = &chaosTransport{t: t, f: f, s: base, remote: e.cfg.TCP != nil}
			t.tr = t.ct
		} else if e.cfg.TCP != nil {
			t.tr = sinkTransport{s: base}
		} else {
			t.tr = perfectTransport{t}
		}

		// Per-level rank checkpoints: every rank serializes the durable
		// per-vertex state it owns at the attempt start, so an injected
		// crash can restore from the last boundary.
		var ckpts [][]byte
		if crashesLeft > 0 && hooks != nil && hooks.Checkpoint != nil {
			ckpts = make([][]byte, e.cfg.Ranks)
			for r := range ckpts {
				ckpts[r] = hooks.Checkpoint(r)
				e.Stats.Faults.Checkpoints.Add(1)
				e.Stats.Faults.CheckpointBytes.Add(int64(len(ckpts[r])))
			}
		}

		init(t.enqueue)
		if t.pending.Load() == 0 {
			return nil
		}

		stop := make(chan struct{})
		var pumpWG sync.WaitGroup
		pumpWG.Add(1)
		go func() {
			defer pumpWG.Done()
			t.pump(deadline, stop)
		}()
		var wg sync.WaitGroup
		for rank := 0; rank < e.cfg.Ranks; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				t.rankLoopFT(rank, visit, crashesLeft > 0)
			}(rank)
		}
		wg.Wait()
		close(stop)
		pumpWG.Wait()

		switch t.state.Load() {
		case ftDeadline:
			return fmt.Errorf("dist: phase %q: %w", phaseName, ErrQuiescenceDeadline)
		case ftCrashed:
			crashesLeft--
			if hooks != nil && hooks.Restore != nil && ckpts != nil {
				hooks.Restore(f.Crash.Rank, ckpts[f.Crash.Rank])
				e.Stats.Faults.Restores.Add(1)
			}
			e.Stats.Faults.Restarts.Add(1)
			// Re-run the attempt against the restored durable state.
		default:
			return nil // quiesced: every logical message acknowledged
		}
	}
}

// rankLoopFT is one rank's delivery loop on the fault-tolerant path.
func (t *traversal) rankLoopFT(rank int, visit func(ctx *Ctx, target graph.VertexID, data any), crashArmed bool) {
	e := t.e
	ctx := &Ctx{t: t, Rank: rank}
	b := t.boxes[rank]
	lm := latencyMeter{sleep: time.Sleep}
	defer lm.flush()
	processed := 0
	stalled := false
	for {
		b.mu.Lock()
		for len(b.q) == 0 && t.pending.Load() > 0 && t.state.Load() == ftRunning {
			b.cond.Wait()
		}
		if len(b.q) == 0 || t.state.Load() != ftRunning {
			b.mu.Unlock()
			return
		}
		env := b.q[0]
		b.q = b.q[1:]
		b.mu.Unlock()

		if env.ack {
			t.handleAck(rank, env)
			continue
		}
		lm.add(e.classDelay(env.class))
		if env.from >= 0 {
			key := sendKey{from: env.from, seq: env.seq}
			if _, dup := t.recv[rank].seen[key]; dup {
				// Redelivery: the effect already applied; re-ack in case
				// the previous ack was lost.
				e.Stats.Faults.Redeliveries.Add(1)
				t.sendAck(rank, env)
				continue
			}
			t.recv[rank].seen[key] = struct{}{}
		}
		processed++

		if st := t.f.Stall; st != nil && st.Rank == rank && !stalled && processed > st.After {
			stalled = true
			e.Stats.Faults.Stalls.Add(1)
			if st.For > 0 {
				select {
				case <-time.After(st.For):
				case <-t.abortCh:
				}
			} else {
				// Stall until the traversal aborts — the livelock the
				// quiescence deadline exists to break.
				<-t.abortCh
			}
			if t.state.Load() != ftRunning {
				return
			}
		}
		if cr := t.f.Crash; crashArmed && cr != nil && cr.Rank == rank && processed > cr.After {
			if t.state.CompareAndSwap(ftRunning, ftCrashed) {
				// The crash loses this rank's mailbox, dedup table and
				// owned per-vertex state; the attempt is discarded and
				// restarted after the checkpoint restore.
				e.Stats.Faults.Crashes.Add(1)
				b.mu.Lock()
				b.q = nil
				b.mu.Unlock()
				t.closeAbort()
				t.wakeAll()
			}
			return
		}

		e.ComputePerRank[rank].Add(1)
		visit(ctx, env.target, env.data)
		if env.from >= 0 {
			// Ack after the visit: any messages the visit pushed have
			// already raised pending, so the ack's decrement can never
			// quiesce the traversal early.
			t.sendAck(rank, env)
		} else if t.pending.Add(-1) == 0 {
			t.wakeAll()
		}
	}
}

// handleAck completes one logical message: first ack wins, duplicates are
// ignored.
func (t *traversal) handleAck(rank int, env envelope) {
	s := t.send[rank]
	s.mu.Lock()
	_, ok := s.unacked[env.seq]
	if ok {
		delete(s.unacked, env.seq)
	}
	s.mu.Unlock()
	if ok && t.pending.Add(-1) == 0 {
		t.wakeAll()
	}
}

// sendAck transmits an ack for env back to its originator. Acks are
// fire-and-forget control traffic (reliability comes from payload retries
// triggering re-acks) with their own sequence numbers so every
// transmission rolls fresh fault decisions.
func (t *traversal) sendAck(rank int, env envelope) {
	s := t.send[rank]
	s.nextSeq++
	t.e.Stats.Faults.AcksSent.Add(1)
	t.tr.deliver(int(env.from), envelope{from: env.from, seq: env.seq, ack: true},
		faultKey{src: rank, seq: s.nextSeq, attempt: 1})
}

// pump is the traversal's background timer: it flushes chaos-delayed
// messages, retransmits unacked sends past their backoff, and enforces the
// quiescence deadline.
func (t *traversal) pump(deadline time.Time, stop chan struct{}) {
	iv := t.f.RetryInterval / 2
	if iv < 100*time.Microsecond {
		iv = 100 * time.Microsecond
	}
	tick := time.NewTicker(iv)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-tick.C:
			if !deadline.IsZero() && now.After(deadline) {
				if t.state.CompareAndSwap(ftRunning, ftDeadline) {
					t.closeAbort()
					t.wakeAll()
				}
				return
			}
			if t.ct != nil {
				t.ct.flushDelayed(now, false)
			}
			t.retransmit(now)
		}
	}
}

// retransmit re-sends every outstanding message past its retry time, with
// per-message exponential backoff capped at 16× the base interval.
func (t *traversal) retransmit(now time.Time) {
	type resend struct {
		env      envelope
		dst      int
		attempts int
	}
	for src, s := range t.send {
		var due []resend
		s.mu.Lock()
		for _, o := range s.unacked {
			if now.After(o.nextRetry) {
				o.attempts++
				shift := o.attempts - 1
				if shift > 4 {
					shift = 4
				}
				o.nextRetry = now.Add(t.f.RetryInterval << uint(shift))
				due = append(due, resend{env: o.env, dst: o.dst, attempts: o.attempts})
			}
		}
		s.mu.Unlock()
		for _, r := range due {
			// Re-check membership immediately before the send: the ack may
			// have landed between the scan above and this delivery, and
			// retransmitting an acked message both burns the wire and
			// inflates Retries with a retry that never needed to happen.
			s.mu.Lock()
			_, still := s.unacked[r.env.seq]
			s.mu.Unlock()
			if !still {
				continue
			}
			t.e.Stats.Faults.Retries.Add(1)
			t.tr.deliver(r.dst, r.env, faultKey{src: src, seq: r.env.seq, attempt: r.attempts})
		}
	}
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

func (t *traversal) closeAbort() {
	t.abortOnce.Do(func() { close(t.abortCh) })
}

// foldFaultMetrics accumulates the engine's lifetime fault-plane counters
// into m — the bridge from MessageStats to the result's core.Metrics.
func (e *Engine) foldFaultMetrics(m *core.Metrics) {
	f := &e.Stats.Faults
	m.FaultDrops += f.Dropped.Load()
	m.FaultDups += f.Duplicated.Load()
	m.FaultReorders += f.Reordered.Load()
	m.FaultDelays += f.Delayed.Load()
	m.Retries += f.Retries.Load()
	m.Redeliveries += f.Redeliveries.Load()
	m.RankCheckpoints += f.Checkpoints.Load()
	m.CheckpointBytes += f.CheckpointBytes.Load()
	m.RankRestores += f.Restores.Load()
	m.RankCrashes += f.Crashes.Load()
	m.RankStalls += f.Stalls.Load()
	m.SockFrames += f.SockFrames.Load()
	m.SockBytes += f.SockBytes.Load()
	m.SockDials += f.SockDials.Load()
	m.SockConnDrops += f.SockConnDrops.Load()
	m.SockPartialWrites += f.SockPartialWrites.Load()
	m.SockDelays += f.SockDelays.Load()
	m.SockWriteErrors += f.SockWriteErrors.Load()
	m.SockStaleFrames += f.SockStaleFrames.Load()
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
