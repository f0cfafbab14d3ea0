package core

import (
	"sync"
	"sync/atomic"

	"approxmatch/internal/bitvec"
	"approxmatch/internal/constraint"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
)

// Cache stores which vertices have satisfied which non-local constraints
// (the κ(v) sets of Alg. 3). It is shared across all prototype searches of a
// run and is the mechanism behind work recycling (Obs. 2): a vertex that
// satisfied constraint C while searching one prototype skips the walk when
// another prototype presents the same constraint ID. It is safe for
// concurrent use (parallel prototype search shares one cache).
//
// The cache can be byte-bounded (NewCacheBytes): when inserting a new
// constraint's set would cross the cap, least-recently-used whole sets are
// evicted first. Eviction is always safe — a recorded verdict only lets a
// vertex *skip* a walk it would provably complete, so losing one merely
// re-runs that walk, and the verification phase makes the final solutions
// exact either way. The differential suites assert bit-identical results
// under tiny caps.
type Cache struct {
	mu       sync.RWMutex
	n        int
	maxBytes int64
	bytes    int64
	sets     map[string]*cacheEntry
	// clock is the recency stamp source; entries copy it on every touch.
	clock     atomic.Int64
	evictions atomic.Int64
	// hits/misses count Satisfied probes store-wide. Per-run metrics fold
	// their own counters; these cumulative ones exist for shared stores that
	// outlive any single run (cross-query recycling).
	hits   atomic.Int64
	misses atomic.Int64
}

// cacheEntry is one constraint's satisfied-vertex set plus its LRU stamp.
type cacheEntry struct {
	set *bitvec.Vector
	// touched is the entry's last-use stamp; updated under the read lock,
	// hence atomic.
	touched atomic.Int64
}

// NewCache returns an unbounded cache for an n-vertex background graph.
func NewCache(n int) *Cache {
	return NewCacheBytes(n, 0)
}

// NewCacheBytes returns a cache for an n-vertex background graph holding at
// most maxBytes of constraint sets (0 = unbounded). A cap smaller than one
// set means nothing is ever cached — legal, just cache-free.
func NewCacheBytes(n int, maxBytes int64) *Cache {
	return &Cache{n: n, maxBytes: maxBytes, sets: make(map[string]*cacheEntry)}
}

// Satisfied reports whether v is recorded as satisfying constraint id.
func (c *Cache) Satisfied(id string, v graph.VertexID) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.sets[id]
	if !ok {
		c.misses.Add(1)
		return false
	}
	if !e.set.Get(int(v)) {
		// No touch on a negative probe: a miss storm against a resident set
		// must not keep it hot at the expense of sets that actually serve
		// hits (they would be evicted first under a byte cap).
		c.misses.Add(1)
		return false
	}
	e.touched.Store(c.clock.Add(1))
	c.hits.Add(1)
	return true
}

// Record marks v as satisfying constraint id. With a byte cap, a new
// constraint set that does not fit evicts least-recently-used sets until it
// does; if it cannot fit even alone the record is dropped (the walk simply
// re-runs next time).
func (c *Cache) Record(id string, v graph.VertexID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.sets[id]
	if !ok {
		set := bitvec.New(c.n)
		if c.maxBytes > 0 {
			need := set.Bytes()
			if need > c.maxBytes {
				return
			}
			for c.bytes+need > c.maxBytes {
				c.evictLRULocked()
			}
		}
		e = &cacheEntry{set: set}
		c.sets[id] = e
		c.bytes += set.Bytes()
	}
	e.touched.Store(c.clock.Add(1))
	e.set.Set(int(v))
}

// evictLRULocked removes the least-recently-touched entry; the caller holds
// the write lock and guarantees the map is non-empty.
func (c *Cache) evictLRULocked() {
	var victim string
	oldest := int64(0)
	first := true
	for id, e := range c.sets {
		if t := e.touched.Load(); first || t < oldest {
			victim, oldest, first = id, t, false
		}
	}
	c.bytes -= c.sets[victim].set.Bytes()
	delete(c.sets, victim)
	c.evictions.Add(1)
}

// Evictions returns how many constraint sets have been evicted.
func (c *Cache) Evictions() int64 { return c.evictions.Load() }

// Hits returns the cumulative number of positive Satisfied probes.
func (c *Cache) Hits() int64 { return c.hits.Load() }

// Misses returns the cumulative number of negative Satisfied probes.
func (c *Cache) Misses() int64 { return c.misses.Load() }

// Sets returns the number of resident constraint sets.
func (c *Cache) Sets() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.sets)
}

// Purge drops every resident set and resets byte accounting, leaving the
// cumulative counters intact. Serving layers call it when the background
// graph changes epoch: recycled verdicts from the old graph are merely
// useless (exactness never depended on them), but holding them wastes the
// byte budget on sets that can no longer hit.
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sets = make(map[string]*cacheEntry)
	c.bytes = 0
}

// Bytes returns the cache's memory footprint (Fig. 11 accounting).
func (c *Cache) Bytes() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.bytes
}

// nlcc validates one non-local constraint walk (Alg. 5) on state s: every
// active vertex that is a candidate for the walk's initiator template vertex
// must complete the walk; vertices that cannot lose that candidate (and are
// deactivated when no candidates remain). With a non-nil cache, vertices
// recorded as satisfying w.ID skip the walk (work recycling); fresh
// successes are recorded. It returns whether any candidate or vertex was
// eliminated.
func nlcc(s *State, omega candidateSet, t *pattern.Template, w *constraint.Walk, cache *Cache, cc *CancelCheck, m *Metrics) bool {
	q0 := w.Seq[0]
	changed, dropped := false, false
	s.ForEachActiveVertex(func(v graph.VertexID) {
		cc.Tick()
		if !omega.has(v, q0) {
			return
		}
		// Cache keys live in original-id space: recycled verdicts must be
		// shareable across levels and prototypes regardless of whether a
		// given search ran compacted.
		if cache != nil && cache.Satisfied(w.ID, s.origID(v)) {
			m.CacheHits++
			return
		}
		m.TokensInitiated++
		if walkFrom(s, omega, t, w, v, cc, m) {
			if cache != nil {
				cache.Record(w.ID, s.origID(v))
			}
			return
		}
		omega.remove(v, q0)
		changed = true
		if !omega.any(v) {
			s.dropVertex(v)
			dropped = true
		}
	})
	if dropped {
		s.clearDanglingSlots()
	}
	return changed
}

// walkFrom runs the token walk for w starting at v (which plays w.Seq[0]).
// The token carries the partial assignment of walk template vertices to
// graph vertices; revisited template vertices must re-use their assignment
// and distinct template vertices must map to distinct graph vertices, which
// is what makes CC closure and PC distinctness checks fall out naturally.
func walkFrom(s *State, omega candidateSet, t *pattern.Template, w *constraint.Walk, v graph.VertexID, cc *CancelCheck, m *Metrics) bool {
	assign := make(map[int]graph.VertexID, len(w.Seq))
	owner := make(map[graph.VertexID]int, len(w.Seq))
	assign[w.Seq[0]] = v
	owner[v] = w.Seq[0]

	var step func(r int, cur graph.VertexID) bool
	step = func(r int, cur graph.VertexID) bool {
		cc.Tick()
		if r == len(w.Seq) {
			return true
		}
		tq := w.Seq[r]
		hopOK := func(next graph.VertexID) bool {
			return templateEdgeLabelOK(s, t, w.Seq[r-1], tq, cur, next)
		}
		if gv, ok := assign[tq]; ok {
			// Revisit: the token must travel back over an active edge with
			// an acceptable edge label.
			m.NLCCMessages++
			if s.EdgeActiveBetween(cur, gv) && s.VertexActive(gv) && hopOK(gv) {
				return step(r+1, gv)
			}
			return false
		}
		ns, base, ws := s.slotScan(cur)
		for ws.Next() {
			for bw := ws.Word; bw != 0; bw &= bw - 1 {
				u := ns[ws.Base+trailingZeros(bw)-base]
				if !s.verts.Get(int(u)) || !omega.has(u, tq) || !hopOK(u) {
					continue
				}
				if _, taken := owner[u]; taken {
					continue
				}
				m.NLCCMessages++
				assign[tq] = u
				owner[u] = tq
				if step(r+1, u) {
					return true
				}
				delete(assign, tq)
				delete(owner, u)
			}
		}
		return false
	}
	return step(1, v)
}
