package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"

	"approxmatch/internal/datagen"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
	"approxmatch/internal/prototype"
)

// query is one pool entry: a base template and the edit distance it is
// submitted with. Requests carry isomorphic relabelings of the base.
type query struct {
	name string
	t    *pattern.Template
	k    int
}

// workload is one traffic mix against one dataset. The datasets are fixed
// (generator seeds are constants, like the paper's WDC crawl): across
// generator seeds WDC-1 latency alone moves 2x with the planted match
// count, which would drown every bound. -seed drives everything the server
// receives after the graph file — relabelings, the mix, the delta batches.
type workload struct {
	name, why string
	build     func() (*graph.Graph, []query)
	// cache leaves amatchd's result cache at its default and pre-warms the
	// pool in set-up; without it the server runs -result-cache-bytes 0.
	cache bool
	// zipf draws pool entries with a zipf(1.1) rank distribution; otherwise
	// the pool is visited round-robin.
	zipf bool
	// writerHz > 0 runs one open-loop /ingest writer beside the readers at
	// that batch rate; 0 posts tailBatches closed-loop after the measured
	// phase instead, so every workload reports ingest and recovery.
	writerHz float64
}

const (
	tailBatches   = 16
	batchInserts  = 8
	batchDeletes  = 4
	batchRelabels = 2
)

// The ingest writer runs at 1 batch/s, not the 4/s first proposed: every
// batch versions the whole result cache out, and re-warming the 16-entry
// pool costs ~480 ms of pipeline time on 2 CPUs. At 2/s or more the reader
// never leaves the re-warm and throughput becomes a function of how the
// zipf tail happens to fall; at 1/s about half of each second is re-warm and
// half is hits, so the latency median sits on the hit path while throughput
// pays, roughly one for one, for every change in miss or ingest cost.
var workloads = []workload{
	{
		name: "cold-search.wdc",
		why:  "paper's WDC-1/2/3 at k=2-3 under fresh relabelings, result cache off: LCC and verification dominate; search-kernel and Workers changes show here",
		build: func() (*graph.Graph, []query) {
			return datagen.WDC(datagen.DefaultWDCConfig()), []query{
				{"WDC-1", datagen.WDC1(), 2}, {"WDC-2", datagen.WDC2(), 2}, {"WDC-3", datagen.WDC3(), 3},
			}
		},
	},
	{
		name: "cold-candset.rmat",
		why:  "RMAT-1 at k=1 on R-MAT scale 16, result cache off: candidate-set generation is ~3/4 of pipeline time; a candidate-set index must win here",
		build: func() (*graph.Graph, []query) {
			g, t := datagen.RMATWithPattern(16)
			return g, []query{{"RMAT-1", t, 1}}
		},
	},
	{
		name:  "warm-mix.rdt",
		why:   "zipf mix of 16 RDT-1 sub-templates, pre-warmed: every request is a result-cache hit, so only HTTP, parse, canonicalize and lookup run; kernel changes must not move it",
		build: redditPool,
		cache: true,
		zipf:  true,
	},
	{
		name:     "ingest-mix.rdt",
		why:      "warm-mix.rdt readers beside an open-loop /ingest writer with fsync per batch: every batch versions the cache out and rebuilds the CSR; WAL and cache changes show here",
		build:    redditPool,
		cache:    true,
		zipf:     true,
		writerHz: 1,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

const redditPoolSize = 16

// redditPool is RDT-1 plus its connected sub-templates: the prototypes of
// RDT-1 and of RDT-1 with one or both subreddit vertices dropped, pairwise
// non-isomorphic, alternating k=1 and k=0. Rank 0 (the zipf head) is the
// paper's own query, RDT-1 at k=1.
func redditPool() (*graph.Graph, []query) {
	return datagen.Reddit(datagen.DefaultRedditConfig()), subTemplatePool(datagen.RDT1(), "RDT-1", redditPoolSize)
}

func subTemplatePool(base *pattern.Template, name string, size int) []query {
	bases := []*pattern.Template{base}
	for drop := 1; drop <= 2; drop++ {
		if t := dropLastVertices(base, drop); t != nil {
			bases = append(bases, t)
		}
	}
	var pool []query
	for _, b := range bases {
		set, err := prototype.Generate(b, b.NumEdges())
		if err != nil {
			panic(err)
		}
	next:
		for _, p := range set.Protos {
			for _, q := range pool {
				if pattern.Isomorphic(q.t, p.Template) {
					continue next
				}
			}
			k := (len(pool) + 1) % 2
			pool = append(pool, query{fmt.Sprintf("%s/sub%d", name, len(pool)), p.Template, k})
			if len(pool) == size {
				return pool
			}
		}
	}
	panic(fmt.Sprintf("bench: only %d non-isomorphic sub-templates of %s, want %d", len(pool), name, size))
}

// dropLastVertices removes the n highest-numbered vertices and their edges;
// nil when the rest is not a valid (connected) template.
func dropLastVertices(t *pattern.Template, n int) *pattern.Template {
	keep := t.NumVertices() - n
	var edges []pattern.Edge
	var mand []bool
	for i, e := range t.Edges() {
		if e.I < keep && e.J < keep {
			edges = append(edges, e)
			mand = append(mand, t.Mandatory(i))
		}
	}
	out, err := pattern.NewWithMandatory(t.Labels()[:keep], edges, mand)
	if err != nil {
		return nil
	}
	return out
}

// rng is splitmix64: request i is a pure function of (seed, i), so the
// request sequence is the same whichever client happens to send it.
type rng uint64

func newRNG(seed int64, stream, i uint64) rng {
	r := rng(uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9 ^ i*0x94d049bb133111eb)
	r.next()
	return r
}

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

const (
	streamRequests = 1
	streamBatches  = 2
)

// mix generates a workload's request sequence.
type mix struct {
	pool []query
	cdf  []float64 // zipf(1.1) over pool ranks; nil = round-robin
	seed int64
}

func newMix(w *workload, pool []query, seed int64) *mix {
	m := &mix{pool: pool, seed: seed}
	if w.zipf {
		var sum float64
		for i := range pool {
			sum += 1 / math.Pow(float64(i+1), 1.1)
			m.cdf = append(m.cdf, sum)
		}
		for i := range m.cdf {
			m.cdf[i] /= sum
		}
	}
	return m
}

type matchBody struct {
	Template string `json:"template"`
	K        int    `json:"k"`
	Count    bool   `json:"count"`
}

// request returns the i-th request of the sequence: the pool entry it draws
// and the /match body carrying a fresh isomorphic relabeling of it.
func (m *mix) request(i uint64) (qi int, body []byte) {
	r := newRNG(m.seed, streamRequests, i)
	if m.cdf == nil {
		qi = int(i % uint64(len(m.pool)))
	} else {
		qi = sort.SearchFloat64s(m.cdf, r.float())
		if qi >= len(m.pool) {
			qi = len(m.pool) - 1
		}
	}
	q := m.pool[qi]
	return qi, encodeMatch(relabel(q.t, &r), q.k)
}

// canonical returns the pool entry under its own numbering: the request
// the pool is warmed and checked with.
func (m *mix) canonical(qi int) []byte {
	q := m.pool[qi]
	return encodeMatch(relabel(q.t, nil), q.k)
}

func encodeMatch(template string, k int) []byte {
	body, err := json.Marshal(matchBody{Template: template, K: k, Count: true})
	if err != nil {
		panic(err)
	}
	return body
}

// relabel renders t in the pattern text format under a random vertex
// permutation, vertex-line order, edge order and endpoint order (r nil =
// the identity). It writes the text itself because pattern.Write would
// normalise the endpoint order away.
func relabel(t *pattern.Template, r *rng) string {
	n, ne := t.NumVertices(), t.NumEdges()
	vperm, vorder, eorder := identity(n), identity(n), identity(ne)
	if r != nil {
		vperm, vorder, eorder = r.perm(n), r.perm(n), r.perm(ne)
	}
	buf := make([]byte, 0, 16*(n+ne))
	for _, q := range vorder {
		buf = append(buf, "v "...)
		buf = strconv.AppendInt(buf, int64(vperm[q]), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, uint64(t.Label(q)), 10)
		buf = append(buf, '\n')
	}
	for _, ei := range eorder {
		e := t.Edge(ei)
		a, b := vperm[e.I], vperm[e.J]
		if r != nil && r.intn(2) == 1 {
			a, b = b, a
		}
		buf = append(buf, "e "...)
		buf = strconv.AppendInt(buf, int64(a), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(b), 10)
		if t.Mandatory(ei) {
			buf = append(buf, " mandatory"...)
		}
		buf = append(buf, '\n')
	}
	return string(buf)
}

func identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// batch is one /ingest request and the delta the harness mirrors it with.
type batch struct {
	body  []byte
	delta *graph.Delta
}

type ingestBody struct {
	Insert  [][2]uint32 `json:"insert"`
	Delete  [][2]uint32 `json:"delete"`
	Relabel [][2]uint32 `json:"relabel"`
}

// genBatches builds n valid batches against g applied in order: each
// inserts absent edges, deletes edges an earlier batch inserted and
// relabels vertices to another label the graph already uses.
func genBatches(g *graph.Graph, seed int64, n int) []batch {
	r := newRNG(seed, streamBatches, 0)
	nv := g.NumVertices()
	var labels []graph.Label
	for l := range g.LabelFrequencies() {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
	current := map[graph.VertexID]graph.Label{} // labels changed so far
	var alive []graph.Edge                      // inserted and not yet deleted
	aliveSet := map[graph.Edge]bool{}
	norm := func(u, v graph.VertexID) graph.Edge {
		if u > v {
			u, v = v, u
		}
		return graph.Edge{U: u, V: v}
	}
	out := make([]batch, 0, n)
	for len(out) < n {
		var b ingestBody
		db := graph.NewDeltaBuilder()
		touched := map[graph.Edge]bool{}
		for d := 0; d < batchDeletes && len(alive) > 0; d++ {
			i := r.intn(len(alive))
			e := alive[i]
			alive[i] = alive[len(alive)-1]
			alive = alive[:len(alive)-1]
			delete(aliveSet, e)
			touched[e] = true
			db.DeleteEdge(e.U, e.V)
			b.Delete = append(b.Delete, [2]uint32{uint32(e.U), uint32(e.V)})
		}
		for len(b.Insert) < batchInserts {
			u, v := graph.VertexID(r.intn(nv)), graph.VertexID(r.intn(nv))
			e := norm(u, v)
			if u == v || g.HasEdge(u, v) || aliveSet[e] || touched[e] {
				continue
			}
			touched[e] = true
			db.InsertEdge(u, v)
			b.Insert = append(b.Insert, [2]uint32{uint32(u), uint32(v)})
		}
		relabeled := map[graph.VertexID]bool{}
		for len(b.Relabel) < batchRelabels && len(labels) > 1 {
			v := graph.VertexID(r.intn(nv))
			old, ok := current[v]
			if !ok {
				old = g.Label(v)
			}
			l := labels[r.intn(len(labels))]
			if relabeled[v] || l == old {
				continue
			}
			relabeled[v] = true
			current[v] = l
			db.RelabelVertex(v, l)
			b.Relabel = append(b.Relabel, [2]uint32{uint32(v), uint32(l)})
		}
		for _, e := range b.Insert {
			ne := norm(graph.VertexID(e[0]), graph.VertexID(e[1]))
			alive = append(alive, ne)
			aliveSet[ne] = true
		}
		body, err := json.Marshal(b)
		if err != nil {
			panic(err)
		}
		d := *db.Delta()
		out = append(out, batch{body: body, delta: &d})
	}
	return out
}

// inputHash fingerprints everything generated from the seed for a run of
// the given length: the first requests and every batch body.
func inputHash(m *mix, batches []batch, requests int) string {
	h := sha256.New()
	for i := 0; i < requests; i++ {
		_, body := m.request(uint64(i))
		h.Write(body)
	}
	for _, b := range batches {
		h.Write(b.body)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}
