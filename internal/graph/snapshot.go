package graph

import (
	"sync"
	"sync/atomic"
)

// Epoch-swapped graph snapshots. A SnapshotStore publishes an immutable
// graph under a monotonically increasing epoch; writers build the
// next-epoch CSR off to the side (ApplyDelta) and swap it in with one
// atomic pointer store, while in-flight readers keep using the snapshot
// they acquired. When the last reader of a superseded snapshot releases,
// the snapshot retires: it drops its graph pointer so the CSR becomes
// collectible immediately instead of living as long as the Snapshot header
// does, and — once no other epoch still shares that same graph (Bump and
// empty deltas republish the previous CSR) — its topology bytes are added
// to the store's reclaimed-bytes counter surfaced on /metrics.

// poisonReaders marks a retired snapshot's reader count. Any value this
// negative can only mean "retired": a racing Acquire that bumps past it
// still sees a negative count, backs out, and retries on the new current.
const poisonReaders = int64(-1) << 40

// graphRef tracks how many live epochs reference one CSR, so reclaimed-bytes
// accounting fires exactly once per distinct graph — when its last holding
// epoch retires — no matter how many Bump/empty-delta epochs shared it.
type graphRef struct {
	holders atomic.Int64
	bytes   int64
}

// Snapshot is one immutable epoch of the graph. Readers obtain it via
// SnapshotStore.Acquire and must call Release exactly once when done; the
// graph is only guaranteed reachable through the snapshot while pinned.
type Snapshot struct {
	gp      atomic.Pointer[Graph]
	ref     *graphRef
	epoch   uint64
	store   *SnapshotStore
	readers atomic.Int64
	current atomic.Bool
}

// Graph returns the snapshot's immutable graph. It is nil once the snapshot
// has retired — after the caller's own Release, which is the only time a
// correctly pinning caller could observe it.
func (s *Snapshot) Graph() *Graph { return s.gp.Load() }

// Epoch returns the snapshot's epoch number.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Release drops the reader's pin. When the last reader of a superseded
// snapshot releases, the snapshot retires.
func (s *Snapshot) Release() {
	if s.readers.Add(-1) == 0 && !s.current.Load() {
		s.tryRetire()
	}
}

// tryRetire retires the snapshot iff no reader holds it. The CAS from zero
// to the poison value is the once-guard and the synchronization point: once
// it lands, no Acquire can pin the snapshot again (they see a negative count
// and back off), so dropping the graph pointer is safe. Callers guarantee
// the snapshot is already superseded.
func (s *Snapshot) tryRetire() {
	if !s.readers.CompareAndSwap(0, poisonReaders) {
		return
	}
	s.gp.Store(nil)
	if s.ref.holders.Add(-1) == 0 {
		s.store.reclaimedBytes.Add(uint64(s.ref.bytes))
	}
	s.store.retired.Add(1)
}

// SnapshotStore publishes the current graph epoch and serializes writers.
// Acquire/Release are wait-free for readers except in the rare race with
// the retirement of a just-superseded epoch; Apply and Bump are mutually
// exclusive.
type SnapshotStore struct {
	writeMu        sync.Mutex
	cur            atomic.Pointer[Snapshot]
	retired        atomic.Uint64
	reclaimedBytes atomic.Uint64
}

// NewSnapshotStore publishes g as epoch 0.
func NewSnapshotStore(g *Graph) *SnapshotStore {
	return NewSnapshotStoreAt(g, 0)
}

// NewSnapshotStoreAt publishes g under a non-zero starting epoch. This is
// the WAL recovery path: the store must resume exactly where the crashed
// process stopped so replayed clients, epoch-keyed caches, and the delta
// log's epoch chain all agree on what "next" means.
func NewSnapshotStoreAt(g *Graph, epoch uint64) *SnapshotStore {
	st := &SnapshotStore{}
	s := &Snapshot{store: st, epoch: epoch}
	s.gp.Store(g)
	s.ref = &graphRef{bytes: g.TopologyBytes()}
	s.ref.holders.Store(1)
	s.current.Store(true)
	st.cur.Store(s)
	return st
}

// Acquire pins and returns the current snapshot. The snapshot stays valid —
// it is immutable and its graph pointer is held until the last pin drops —
// even if a writer swaps in a new epoch concurrently; the caller must
// Release it exactly once.
func (st *SnapshotStore) Acquire() *Snapshot {
	for {
		s := st.cur.Load()
		if s.readers.Add(1) > 0 {
			return s
		}
		// The snapshot retired between the load and the pin (count is
		// poisoned). Back out and retry on the newer current — retirement
		// implies one exists.
		s.readers.Add(-1)
	}
}

// Current returns the current graph without pinning it. Use Acquire when
// the caller does more than one read against a consistent epoch.
func (st *SnapshotStore) Current() *Graph {
	for {
		if g := st.cur.Load().gp.Load(); g != nil {
			return g
		}
		// Loaded a snapshot that was superseded and retired in between; the
		// store already points at a newer epoch.
	}
}

// Epoch returns the current epoch number.
func (st *SnapshotStore) Epoch() uint64 { return st.cur.Load().epoch }

// Retired returns how many superseded snapshots have seen their last reader
// finish (or had none when superseded).
func (st *SnapshotStore) Retired() uint64 { return st.retired.Load() }

// ReclaimedBytes returns the total CSR topology bytes made collectible by
// snapshot retirement: a graph's bytes count once, when the last epoch
// referencing it retires. Epochs that republished the same CSR (Bump, empty
// deltas) contribute nothing extra.
func (st *SnapshotStore) ReclaimedBytes() uint64 { return st.reclaimedBytes.Load() }

// publish swaps g in as the next epoch. Caller holds writeMu.
func (st *SnapshotStore) publish(g *Graph) *Snapshot {
	old := st.cur.Load()
	next := &Snapshot{epoch: old.epoch + 1, store: st}
	next.gp.Store(g)
	if old.gp.Load() == g {
		next.ref = old.ref // same CSR carried forward: share the holder count
	} else {
		next.ref = &graphRef{bytes: g.TopologyBytes()}
	}
	next.ref.holders.Add(1)
	next.current.Store(true)
	st.cur.Store(next)
	old.current.Store(false)
	// Retire immediately when no reader holds the superseded epoch; a pinned
	// epoch retires in its last Release instead (which re-checks current).
	old.tryRetire()
	return next
}

// Apply validates and applies d to the current epoch, publishes the result
// as the next epoch and returns the new epoch number plus the changed
// vertices (see ApplyDelta). On a validation error nothing is published. An
// empty delta still advances the epoch (publishing the same graph), so
// callers can rely on Apply to version out epoch-keyed caches.
func (st *SnapshotStore) Apply(d *Delta) (epoch uint64, changed []VertexID, err error) {
	return st.ApplyLogged(d, nil)
}

// ApplyLogged is Apply with a durability commit hook. After d validates
// against the current epoch — the next-epoch CSR is fully built at that
// point — and before anything is published to readers, commit runs under
// the writer lock with the epoch the batch is about to become. If commit
// returns an error, nothing is published and the error is returned: this
// is the write-ahead contract, a published epoch always implies a
// durably logged record and never the reverse. A nil commit makes
// ApplyLogged identical to Apply.
func (st *SnapshotStore) ApplyLogged(d *Delta, commit func(epoch uint64) error) (epoch uint64, changed []VertexID, err error) {
	st.writeMu.Lock()
	defer st.writeMu.Unlock()
	old := st.cur.Load()
	ng, changed, err := ApplyDelta(old.Graph(), d)
	if err != nil {
		return old.epoch, nil, err
	}
	if commit != nil {
		if err := commit(old.epoch + 1); err != nil {
			return old.epoch, nil, err
		}
	}
	return st.publish(ng).epoch, changed, nil
}

// Bump republishes the current graph under a new epoch without mutating it,
// for callers that need epoch-keyed caches invalidated.
func (st *SnapshotStore) Bump() uint64 {
	st.writeMu.Lock()
	defer st.writeMu.Unlock()
	return st.publish(st.cur.Load().Graph()).epoch
}
