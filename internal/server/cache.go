package server

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
)

// Cross-query result caching (ROADMAP item 1: shared execution).
//
// Admission runs pattern.Canonical once per /match: it rewrites the template
// to its canonical form and returns its canonical key, so every query
// isomorphic to a previously-served one — any vertex relabeling, edge
// reordering or endpoint flip — maps to the same cache key and the same
// canonical execution. Because /match responses reference only background
// graph vertices and prototype indices of the canonical run (never the
// client's template vertex numbering), a cached body is served verbatim:
// the isomorphism translation is the identity once execution itself is
// canonical. A template Canonical declines (too symmetric for its cap) is
// merely uncacheable: it runs under the client's own numbering.
//
// The key is (graph epoch, k, count, vectors, canonical key). The
// canonical key encodes labels, adjacency, edge labels AND mandatory flags
// — two templates share it exactly when their prototype sets, and hence
// their results, provably coincide. Epoch versioning invalidates every key
// when an /ingest batch swaps the background graph.
//
// Partial (budget-exhausted) responses are never cached: they reflect one
// query's budget, not the graph.

// resultKey derives the cache key for a request whose template canonical
// key is ck.
func resultKey(epoch uint64, req *MatchRequest, ck string) string {
	return fmt.Sprintf("e%d|k%d|c%t|v%t|%s", epoch, req.K, req.Count, req.Vectors, ck)
}

// resultCache is a byte-capped, concurrency-safe LRU over serialized
// /match response bodies. Values are immutable byte slices served verbatim,
// which is what makes warm responses bit-identical to the cold run that
// populated them. Eviction never affects exactness — a victim is simply
// recomputed by the next query that wants it.
type resultCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	entries  map[string]*list.Element
	lru      *list.List // front = most recent; values are *rcEntry

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// resultCacheEntryOverhead is the fixed per-entry charge covering the map
// cell, the list element and the rcEntry header — memory a cached result
// occupies beyond its key and body bytes. Without it (and the key charge) a
// flood of tiny bodies under long canonical keys could resident-size far past
// the configured cap while the accounting read near zero.
const resultCacheEntryOverhead = 128

type rcEntry struct {
	key  string
	body []byte
	// size is the bytes charged against the cap at insertion: key + body +
	// fixed overhead. Stored so eviction refunds exactly what put charged.
	size int64
}

// entryCost is the byte charge for caching body under key.
func entryCost(key string, body []byte) int64 {
	return int64(len(key)) + int64(len(body)) + resultCacheEntryOverhead
}

func newResultCache(maxBytes int64) *resultCache {
	return &resultCache{
		maxBytes: maxBytes,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
	}
}

// get returns the cached body for key, or nil. Counting is left to the
// caller (a single-flight follower is a hit too, but never calls get).
func (c *resultCache) get(key string) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	return el.Value.(*rcEntry).body
}

// put inserts body under key, evicting least-recently-used entries to honor
// the byte cap. Entries are charged their full footprint — key bytes, body
// bytes and a fixed per-entry overhead — not just the body (a body-only
// charge undercounts small-body/long-key workloads). Entries costlier than
// the whole cap are skipped.
func (c *resultCache) put(key string, body []byte) {
	need := entryCost(key, body)
	if need > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		// Concurrent leader of the same key (possible across an epoch bump's
		// purge): keep the resident body, refresh recency.
		c.lru.MoveToFront(el)
		return
	}
	for c.bytes+need > c.maxBytes {
		back := c.lru.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*rcEntry)
		c.lru.Remove(back)
		delete(c.entries, victim.key)
		c.bytes -= victim.size
		c.evictions.Add(1)
	}
	c.entries[key] = c.lru.PushFront(&rcEntry{key: key, body: body, size: need})
	c.bytes += need
}

// purge drops every entry (epoch swap); cumulative counters survive.
func (c *resultCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[string]*list.Element)
	c.lru = list.New()
	c.bytes = 0
}

// stats samples the cache gauges for /metrics.
func (c *resultCache) stats() (bytes int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes, len(c.entries)
}

// flight is one in-progress computation of a cache key. The leader closes
// done after setting body (nil = the run failed or went partial; followers
// then run their own query rather than stampeding on a shared error).
type flight struct {
	done chan struct{}
	body []byte
}

// flightGroup coalesces concurrent identical queries: the first request for
// a key becomes the leader and runs the pipeline; the rest wait on the
// flight — without holding scheduler slots — and serve the leader's bytes.
type flightGroup struct {
	mu      sync.Mutex
	flights map[string]*flight
}

func newFlightGroup() *flightGroup {
	return &flightGroup{flights: make(map[string]*flight)}
}

// join returns the flight for key and whether the caller is its leader.
func (g *flightGroup) join(key string) (*flight, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.flights[key]; ok {
		return f, false
	}
	f := &flight{done: make(chan struct{})}
	g.flights[key] = f
	return f, true
}

// complete publishes the leader's body (nil on failure) and releases the
// key; deferred by the leader so followers can never wait forever.
func (g *flightGroup) complete(key string, f *flight, body []byte) {
	g.mu.Lock()
	delete(g.flights, key)
	g.mu.Unlock()
	f.body = body
	close(f.done)
}
