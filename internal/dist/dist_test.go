package dist

import (
	"context"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"approxmatch/internal/bitvec"
	"approxmatch/internal/core"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
)

func randomGraph(rng *rand.Rand, n, m, labels int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetLabel(graph.VertexID(v), graph.Label(rng.Intn(labels)))
	}
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(graph.VertexID(u), graph.VertexID(v))
		}
	}
	return b.Build()
}

func randomTemplate(rng *rand.Rand, maxV, labels int) *pattern.Template {
	n := 2 + rng.Intn(maxV-1)
	ls := make([]pattern.Label, n)
	for i := range ls {
		ls[i] = pattern.Label(rng.Intn(labels))
	}
	var edges []pattern.Edge
	for v := 1; v < n; v++ {
		edges = append(edges, pattern.Edge{I: rng.Intn(v), J: v})
	}
	for i := 0; i < rng.Intn(3); i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		e := pattern.Edge{I: a, J: b}
		dup := false
		for _, x := range edges {
			if x == e {
				dup = true
			}
		}
		if !dup {
			edges = append(edges, e)
		}
	}
	t, err := pattern.New(ls, edges)
	if err != nil {
		panic(err)
	}
	return t
}

func TestTraverseQuiescence(t *testing.T) {
	// A ripple: every vertex forwards a counter to its neighbors until TTL
	// expires; the traversal must terminate and process every message.
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 50, 150, 2)
	e := NewEngine(g, Config{Ranks: 4, RanksPerNode: 2})
	var visits atomic.Int64
	type ripple struct{ ttl int }
	e.Traverse("test",
		func(seed func(graph.VertexID, any)) {
			seed(0, ripple{ttl: 3})
		},
		func(ctx *Ctx, target graph.VertexID, data any) {
			visits.Add(1)
			r := data.(ripple)
			if r.ttl == 0 {
				return
			}
			ctx.SendToNeighbors(target,
				func(int, graph.VertexID) bool { return true },
				func(int, graph.VertexID) any { return ripple{ttl: r.ttl - 1} })
		})
	if visits.Load() == 0 {
		t.Fatal("no visits")
	}
	// Message accounting: counted sends equal visits minus the seed.
	if got := e.Stats.Phase("test").Total(); got != visits.Load()-1 {
		t.Errorf("accounted %d messages for %d visits", got, visits.Load())
	}
}

func TestTraverseManyRounds(t *testing.T) {
	// Stress quiescence detection across many small traversals.
	rng := rand.New(rand.NewSource(2))
	g := randomGraph(rng, 30, 60, 2)
	e := NewEngine(g, Config{Ranks: 8, RanksPerNode: 4})
	for round := 0; round < 100; round++ {
		var count atomic.Int64
		e.Traverse("round",
			func(seed func(graph.VertexID, any)) {
				for v := 0; v < g.NumVertices(); v++ {
					seed(graph.VertexID(v), struct{}{})
				}
			},
			func(ctx *Ctx, target graph.VertexID, data any) {
				count.Add(1)
			})
		if count.Load() != int64(g.NumVertices()) {
			t.Fatalf("round %d: %d visits", round, count.Load())
		}
	}
}

func TestLocalityAccounting(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(3)), 40, 100, 2)
	e := NewEngine(g, Config{Ranks: 4, RanksPerNode: 2})
	// Send one message from every vertex's owner to vertex 0's owner.
	e.Traverse("acct",
		func(seed func(graph.VertexID, any)) { seed(1, struct{}{}) },
		func(ctx *Ctx, target graph.VertexID, data any) {
			if target == 1 {
				for v := 2; v < 10; v++ {
					ctx.Send(graph.VertexID(v), struct{}{})
				}
			}
		})
	p := e.Stats.Phase("acct")
	if p.Total() != 8 {
		t.Errorf("total = %d, want 8", p.Total())
	}
	// The sum of the three classes must equal the total.
	if p.IntraRank.Load()+p.InterRank.Load()+p.InterNode.Load() != p.Total() {
		t.Error("class sums inconsistent")
	}
}

func TestDistPipelineMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(rng, 30+rng.Intn(30), 90+rng.Intn(60), 3)
		tp := randomTemplate(rng, 4, 3)
		k := rng.Intn(3)

		cfg := core.DefaultConfig(k)
		cfg.CountMatches = true
		seq, err := core.Run(g, tp, cfg)
		if err != nil {
			t.Fatal(err)
		}

		e := NewEngine(g, Config{Ranks: 1 + rng.Intn(7), RanksPerNode: 2})
		opts := DefaultOptions(k)
		opts.CountMatches = true
		dres, err := Run(e, tp, opts)
		if err != nil {
			t.Fatal(err)
		}

		if dres.Set.Count() != seq.Set.Count() {
			t.Fatalf("trial %d: prototype sets differ", trial)
		}
		for pi := range seq.Set.Protos {
			if !dres.Solutions[pi].Verts.Equal(seq.Solutions[pi].Verts) {
				t.Errorf("trial %d proto %d: vertex sets differ (dist=%d seq=%d)",
					trial, pi, dres.Solutions[pi].Verts.Count(), seq.Solutions[pi].Verts.Count())
			}
			if !dres.Solutions[pi].Edges.Equal(seq.Solutions[pi].Edges) {
				t.Errorf("trial %d proto %d: edge sets differ", trial, pi)
			}
			if dres.Solutions[pi].MatchCount != seq.Solutions[pi].MatchCount {
				t.Errorf("trial %d proto %d: counts %d vs %d",
					trial, pi, dres.Solutions[pi].MatchCount, seq.Solutions[pi].MatchCount)
			}
		}
	}
}

func TestDistPipelineAblations(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := randomGraph(rng, 40, 120, 3)
	tp := pattern.MustNew([]pattern.Label{0, 1, 2, 0},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 2, J: 3}, {I: 0, J: 3}})
	cfg := core.DefaultConfig(2)
	seq, err := core.Run(g, tp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{Config: core.Config{EditDistance: 2}},
		{Config: core.Config{EditDistance: 2, WorkRecycling: true}},
		{Config: core.Config{EditDistance: 2}, Rebalance: true},
		{Config: core.Config{EditDistance: 2, LabelPairRefinement: true, FrequencyOrdering: true}},
		DefaultOptions(2),
	} {
		e := NewEngine(g, Config{Ranks: 5, RanksPerNode: 2, DelegateThreshold: 10})
		dres, err := Run(e, tp, opts)
		if err != nil {
			t.Fatal(err)
		}
		for pi := range seq.Set.Protos {
			if !dres.Solutions[pi].Verts.Equal(seq.Solutions[pi].Verts) {
				t.Errorf("opts %+v proto %d: vertex sets differ", opts, pi)
			}
		}
	}
}

// TestUnsupportedOptionsRejected checks the embedded core.Config fields the
// distributed engine has no implementation for fail the entry point with an
// error naming the field, instead of being silently ignored — and that
// CacheBytes is accepted (and, as in core, ignored) beside a SharedCache.
func TestUnsupportedOptionsRejected(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(47)), 20, 40, 2)
	tp := pattern.MustNew([]pattern.Label{0, 1}, []pattern.Edge{{I: 0, J: 1}})
	for _, c := range []struct {
		field string // "" = must be accepted
		set   func(*Options)
	}{
		{"Restrict", func(o *Options) { o.Restrict = bitvec.New(g.NumVertices()) }},
		{"CacheBytes", func(o *Options) { o.CacheBytes = 1 << 10 }},
		{"", func(o *Options) {
			o.CacheBytes = 1 << 10
			o.SharedCache = core.NewCacheBytes(g.NumVertices(), 1<<10)
		}},
	} {
		opts := DefaultOptions(1)
		c.set(&opts)
		_, err := RunContext(context.Background(), NewEngine(g, Config{Ranks: 2}), tp, opts)
		if c.field == "" {
			if err != nil {
				t.Errorf("CacheBytes beside SharedCache rejected: %v", err)
			}
		} else if err == nil || !strings.Contains(err.Error(), "Options."+c.field) {
			t.Errorf("%s set: err = %v, want a rejection naming the field", c.field, err)
		}
	}
}

func TestDelegatesReduceRemoteMessages(t *testing.T) {
	// A hub-heavy graph: broadcasts from the hub must cost fewer remote
	// messages with delegation enabled.
	b := graph.NewBuilder(200)
	for v := 1; v < 200; v++ {
		b.AddEdge(0, graph.VertexID(v))
	}
	g := b.Build()

	run := func(threshold int) int64 {
		e := NewEngine(g, Config{Ranks: 8, RanksPerNode: 2, DelegateThreshold: threshold})
		e.Traverse("bcast",
			func(seed func(graph.VertexID, any)) { seed(0, struct{}{}) },
			func(ctx *Ctx, target graph.VertexID, data any) {
				if target == 0 {
					ctx.SendToNeighbors(target,
						func(int, graph.VertexID) bool { return true },
						func(int, graph.VertexID) any { return nil })
				}
			})
		return e.Stats.Phase("bcast").Remote()
	}
	without := run(0)
	with := run(50)
	if with >= without {
		t.Errorf("delegation did not reduce remote messages: with=%d without=%d", with, without)
	}
}

func TestBalancedOwners(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(5)), 100, 200, 2)
	e := NewEngine(g, Config{Ranks: 4})
	active := core.NewFullState(g).VertexBits()
	owners := BalancedOwners(active, 4)
	counts := make([]int, 4)
	for _, o := range owners {
		counts[o]++
	}
	for r, c := range counts {
		if c < 20 || c > 30 {
			t.Errorf("rank %d owns %d active vertices, want ~25", r, c)
		}
	}
	e.SetOwners(owners)
	if e.Owner(0) != int(owners[0]) {
		t.Error("SetOwners not applied")
	}
}

func TestCheckpointReload(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randomGraph(rng, 60, 150, 3)
	s := core.NewEmptyState(g)
	for v := 0; v < 30; v++ {
		s.VertexBits().Set(v)
	}
	data, vw, err := Checkpoint(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if vw.NumVertices() != 30 {
		t.Fatalf("checkpointed %d vertices", vw.NumVertices())
	}
	e, err := Reload(data, Config{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if e.Graph().NumVertices() != 30 {
		t.Errorf("reloaded %d vertices", e.Graph().NumVertices())
	}
	for nv, ov := range vw.OrigVertices() {
		if e.Graph().Label(graph.VertexID(nv)) != g.Label(ov) {
			t.Errorf("label mismatch at %d", nv)
		}
	}
}

// TestCheckpointEdgelessEdgeLabeled checkpoints a cut of an edge-labeled
// graph that keeps no edge: the reloaded graph must still be edge-labeled,
// so an edge-labeled template searched on it sees the graph it was cut
// from.
func TestCheckpointEdgelessEdgeLabeled(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdgeLabeled(0, 1, 1)
	b.AddEdgeLabeled(2, 3, 2)
	g := b.Build()
	s := core.NewEmptyState(g)
	s.VertexBits().Set(0)
	s.VertexBits().Set(2)
	data, vw, err := Checkpoint(g, s)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Reload(data, Config{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	rg := e.Graph()
	if rg.NumVertices() != 2 || rg.NumEdges() != 0 || vw.NumVertices() != 2 {
		t.Fatalf("reloaded %d vertices, %d edges", rg.NumVertices(), rg.NumEdges())
	}
	if !rg.HasEdgeLabels() {
		t.Fatal("an edgeless cut of an edge-labeled graph reloaded edge-unlabeled")
	}
}

func TestParallelPrototypeSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 50, 150, 3)
	tp := pattern.MustNew([]pattern.Label{0, 1, 2},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}})
	var m core.Metrics
	mcs := core.MaxCandidateSet(g, tp, &m)

	// Search the same template 6 times in parallel; results must agree
	// with the sequential search.
	templates := make([]*pattern.Template, 6)
	for i := range templates {
		templates[i] = tp
	}
	res := SearchPrototypesParallel(mcs, templates, 3, 2, nil)
	want := core.SearchOn(context.Background(), mcs, tp, nil, nil, false, &m)
	for i, sol := range res.Solutions {
		if !sol.Verts.Equal(want.Verts) {
			t.Errorf("parallel search %d differs", i)
		}
	}
	if res.RankSeconds <= 0 {
		t.Error("no rank-seconds recorded")
	}
}

// TestParallelPrototypeSearchSharedFreq runs concurrent searches that share
// one label-frequency map, as the §5.4 deployment study does. The cost
// estimator behind each search's walk ordering must only read that map: a
// write would race with the sibling searches (fatal "concurrent map writes"
// outside the race detector) and leak the wildcard count into the caller's
// statistics.
func TestParallelPrototypeSearchSharedFreq(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng, 60, 200, 3)
	tp := pattern.MustNew([]pattern.Label{0, 1, 2, pattern.Wildcard},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}, {I: 2, J: 3}})
	var m core.Metrics
	mcs := core.MaxCandidateSet(g, tp, &m)
	freq := g.LabelFrequencies()
	labels := len(freq)

	templates := make([]*pattern.Template, 8)
	for i := range templates {
		templates[i] = tp
	}
	res := SearchPrototypesParallel(mcs, templates, 4, 1, freq)
	if len(freq) != labels {
		t.Fatalf("shared freq map written: %d labels before, %d after", labels, len(freq))
	}
	if _, ok := freq[pattern.Wildcard]; ok {
		t.Fatal("shared freq map gained a wildcard entry")
	}
	want := core.SearchOn(context.Background(), mcs, tp, nil, freq, false, &m)
	for i, sol := range res.Solutions {
		if !sol.Verts.Equal(want.Verts) || !sol.Edges.Equal(want.Edges) {
			t.Errorf("parallel search %d differs from the sequential one", i)
		}
	}
}

func TestOrderByEstimatedCost(t *testing.T) {
	cheap := pattern.MustNew([]pattern.Label{5, 6}, []pattern.Edge{{I: 0, J: 1}})
	costly := pattern.MustNew([]pattern.Label{0, 0, 0},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}})
	freq := map[pattern.Label]int64{0: 1000, 5: 1, 6: 1}
	order := OrderByEstimatedCost([]*pattern.Template{cheap, costly}, freq)
	if order[0] != 1 {
		t.Errorf("expensive template should launch first: %v", order)
	}
}

func TestModeledTimeLocalityShape(t *testing.T) {
	// With fixed rank count, the modeled runtime should be worse at the
	// extremes (all ranks on one oversubscribed node; one rank per node,
	// all traffic on the network) than at an intermediate grouping.
	rng := rand.New(rand.NewSource(8))
	g := randomGraph(rng, 80, 240, 3)
	e := NewEngine(g, Config{Ranks: 48, RanksPerNode: 8})
	tp := randomTemplate(rng, 4, 3)
	if _, err := Run(e, tp, DefaultOptions(1)); err != nil {
		t.Fatal(err)
	}
	cm := DefaultCostModel()
	cm.CoresPerNode = 8
	oneNode := ModeledTime(e, cm, 48) // heavy oversubscription
	spread := ModeledTime(e, cm, 1)   // all remote traffic
	middle := ModeledTime(e, cm, 8)   // balanced
	if middle >= oneNode || middle >= spread {
		t.Errorf("locality curve not U-shaped: one-node=%.0f middle=%.0f spread=%.0f",
			oneNode, middle, spread)
	}
}

func TestLoadImbalanceMetric(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(9)), 50, 100, 2)
	e := NewEngine(g, Config{Ranks: 4})
	if got := LoadImbalance(e); got != 1 {
		t.Errorf("imbalance with no work = %v, want 1", got)
	}
	e.ComputePerRank[0].Store(100)
	e.ComputePerRank[1].Store(100)
	e.ComputePerRank[2].Store(100)
	e.ComputePerRank[3].Store(100)
	if got := LoadImbalance(e); got != 1.0 {
		t.Errorf("balanced imbalance = %v", got)
	}
	e.ComputePerRank[0].Store(400)
	if got := LoadImbalance(e); got <= 1.5 {
		t.Errorf("skewed imbalance = %v", got)
	}
	for r := range e.ComputePerRank {
		e.ComputePerRank[r].Store(0)
	}
	if LoadImbalance(e) != 1 {
		t.Error("reset failed")
	}
}

func TestReplicaSetMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	g := randomGraph(rng, 50, 150, 3)
	tp := pattern.MustNew([]pattern.Label{0, 1, 2, 0},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 2, J: 3}, {I: 0, J: 3}})
	var m core.Metrics
	mcs := core.MaxCandidateSet(g, tp, &m)

	// Prototypes of tp at k<=1.
	seq, err := core.Run(g, tp, core.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	var templates []*pattern.Template
	for _, p := range seq.Set.Protos {
		templates = append(templates, p.Template)
	}

	rs, err := NewReplicaSet(g, mcs, 3, Config{Ranks: 2, RanksPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Replicas() != 3 || rs.SubgraphSize() != mcs.NumActiveVertices() {
		t.Fatalf("replica shape: %d replicas, %d vertices", rs.Replicas(), rs.SubgraphSize())
	}
	opts := Options{Config: core.Config{CountMatches: true}}
	sols := rs.Search(templates, nil, opts)
	for i := range templates {
		want := core.SearchOn(context.Background(), mcs, templates[i], nil, nil, true, &m)
		if !sols[i].Verts.Equal(want.Verts) {
			t.Errorf("template %d: vertex sets differ (replica=%d want=%d)",
				i, sols[i].Verts.Count(), want.Verts.Count())
		}
		if !sols[i].Edges.Equal(want.Edges) {
			t.Errorf("template %d: edge sets differ", i)
		}
		if sols[i].MatchCount != want.MatchCount {
			t.Errorf("template %d: counts %d vs %d", i, sols[i].MatchCount, want.MatchCount)
		}
	}
}

// TestReplicaSlotOwner checks the replica-to-original slot map: every
// directed slot of a reloaded replica must map, through the checkpoint's
// view, to the original slot joining the same two vertices.
func TestReplicaSlotOwner(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(82)), 30, 80, 2)
	s := core.NewEmptyState(g)
	for v := 0; v < g.NumVertices(); v += 1 + v%2 {
		s.VertexBits().Set(v)
	}
	data, vw, err := Checkpoint(g, s)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Reload(data, Config{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	rg := e.Graph()
	if rg.NumDirectedEdges() == 0 {
		t.Fatal("checkpoint kept no edge; the check is vacuous")
	}
	for u := 0; u < rg.NumVertices(); u++ {
		base := int(rg.AdjOffset(graph.VertexID(u)))
		for i, w := range rg.Neighbors(graph.VertexID(u)) {
			verts := bitvec.New(rg.NumVertices())
			slots := bitvec.New(rg.NumDirectedEdges())
			slots.Set(base + i)
			_, os := vw.OrigBits(verts, slots)
			ou, ow := vw.OrigVertex(graph.VertexID(u)), vw.OrigVertex(w)
			want := int(g.AdjOffset(ou)) + g.EdgeIndex(ou, ow)
			if os.Count() != 1 || !os.Get(want) {
				t.Fatalf("replica slot %d (%d->%d): maps to %v, want original slot %d", base+i, u, w, os, want)
			}
		}
	}
}

func TestDistEdgeLabeledMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	for trial := 0; trial < 5; trial++ {
		b := graph.NewBuilder(30)
		for v := 0; v < 30; v++ {
			b.SetLabel(graph.VertexID(v), graph.Label(rng.Intn(3)))
		}
		for i := 0; i < 90; i++ {
			u, v := rng.Intn(30), rng.Intn(30)
			if u != v {
				b.AddEdgeLabeled(graph.VertexID(u), graph.VertexID(v), graph.Label(rng.Intn(2)))
			}
		}
		g := b.Build()
		tp, err := pattern.NewEdgeLabeled(
			[]pattern.Label{0, 1, 2},
			[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}},
			[]pattern.Label{1, pattern.Wildcard, 0}, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig(1)
		cfg.CountMatches = true
		seq, err := core.Run(g, tp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(g, Config{Ranks: 4, RanksPerNode: 2})
		opts := DefaultOptions(1)
		opts.CountMatches = true
		dres, err := Run(e, tp, opts)
		if err != nil {
			t.Fatal(err)
		}
		for pi := range seq.Set.Protos {
			if !dres.Solutions[pi].Verts.Equal(seq.Solutions[pi].Verts) {
				t.Errorf("trial %d proto %d: vertex sets differ", trial, pi)
			}
			if dres.Solutions[pi].MatchCount != seq.Solutions[pi].MatchCount {
				t.Errorf("trial %d proto %d: counts differ", trial, pi)
			}
		}
	}
}

func TestPartitionStrategies(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(104)), 100, 200, 2)
	block := NewEngine(g, Config{Ranks: 4})
	hash := NewEngine(g, Config{Ranks: 4, Partition: PartitionHash})
	// Block: contiguous ranges — owner non-decreasing in vertex id.
	for v := 1; v < g.NumVertices(); v++ {
		if block.Owner(graph.VertexID(v)) < block.Owner(graph.VertexID(v-1)) {
			t.Fatalf("block partition not monotone at %d", v)
		}
	}
	// Hash: scattered — some adjacent-id pair must differ in owner.
	scattered := false
	for v := 1; v < g.NumVertices(); v++ {
		if hash.Owner(graph.VertexID(v)) != hash.Owner(graph.VertexID(v-1)) {
			scattered = true
			break
		}
	}
	if !scattered {
		t.Error("hash partition looks contiguous")
	}
	// Both give identical pipeline results.
	tp := pattern.MustNew([]pattern.Label{0, 1}, []pattern.Edge{{I: 0, J: 1}})
	r1, err := Run(block, tp, DefaultOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(hash, tp, DefaultOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Solutions[0].Verts.Equal(r2.Solutions[0].Verts) {
		t.Error("partition strategy changed results")
	}
}

// TestSimulatedLatencyExposure checks the injected latency shows up in wall
// time by a bound the engine guarantees: every rank sleeps off the latency of
// the messages it receives, so a traversal lasts at least its busiest rank's
// debt, and the run at least the total debt spread evenly over the ranks.
func TestSimulatedLatencyExposure(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(111)), 40, 120, 3)
	tp := pattern.MustNew([]pattern.Label{0, 1}, []pattern.Edge{{I: 0, J: 1}})
	cfg := Config{Ranks: 4, RanksPerNode: 2, InterNodeDelay: 200 * time.Microsecond, InterRankDelay: 20 * time.Microsecond}
	e := NewEngine(g, cfg)
	start := time.Now()
	slow, err := Run(e, tp, DefaultOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	var debt time.Duration
	for _, name := range e.Stats.Phases() {
		p := e.Stats.Phase(name)
		debt += time.Duration(p.InterNode.Load())*cfg.InterNodeDelay + time.Duration(p.InterRank.Load())*cfg.InterRankDelay
	}
	if debt == 0 {
		t.Fatal("no off-rank messages: the latency bound is vacuous")
	}
	if floor := debt / time.Duration(cfg.Ranks); elapsed < floor {
		t.Errorf("latency simulation under-slept: run took %v, injected debt %v over %d ranks needs at least %v",
			elapsed, debt, cfg.Ranks, floor)
	}
	// Results unchanged under latency.
	fast, err := Run(NewEngine(g, Config{Ranks: 4, RanksPerNode: 2}), tp, DefaultOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	if !fast.Solutions[0].Verts.Equal(slow.Solutions[0].Verts) {
		t.Error("latency changed results")
	}
}

// TestDistCompactionDifferential checks compaction invisibility through the
// distributed path: compacting level states and every gathered subgraph at
// the pipeline's threshold must leave the results bit-identical to the
// sequential engine's, and the trials must actually compact.
func TestDistCompactionDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	var compactions int64
	for trial := 0; trial < 6; trial++ {
		g := randomGraph(rng, 30+rng.Intn(30), 90+rng.Intn(60), 3)
		tp := randomTemplate(rng, 4, 3)
		k := 1 + rng.Intn(2)

		cfg := core.DefaultConfig(k)
		cfg.CountMatches = true
		seq, err := core.Run(g, tp, cfg)
		if err != nil {
			t.Fatal(err)
		}

		e := NewEngine(g, Config{Ranks: 1 + rng.Intn(7), RanksPerNode: 2})
		opts := DefaultOptions(k)
		opts.CountMatches = true
		dres, err := Run(e, tp, opts)
		if err != nil {
			t.Fatal(err)
		}
		compactions += dres.Metrics.Compactions
		for pi := range seq.Set.Protos {
			if !dres.Solutions[pi].Verts.Equal(seq.Solutions[pi].Verts) {
				t.Errorf("trial %d proto %d: vertex sets differ", trial, pi)
			}
			if !dres.Solutions[pi].Edges.Equal(seq.Solutions[pi].Edges) {
				t.Errorf("trial %d proto %d: edge sets differ", trial, pi)
			}
			if dres.Solutions[pi].MatchCount != seq.Solutions[pi].MatchCount {
				t.Errorf("trial %d proto %d: counts %d vs %d",
					trial, pi, dres.Solutions[pi].MatchCount, seq.Solutions[pi].MatchCount)
			}
		}
	}
	if compactions == 0 {
		t.Fatal("no distributed trial ever compacted; the differential is vacuous")
	}
}

// TestDistLevelsMatchSequential pins the level commit both engines share:
// the distributed run's per-level counts and its Rho matrix must equal the
// sequential engine's.
func TestDistLevelsMatchSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for trial := 0; trial < 4; trial++ {
		g := randomGraph(rng, 30+rng.Intn(30), 90+rng.Intn(60), 3)
		tp := randomTemplate(rng, 4, 3)
		for _, k := range []int{1, 2} {
			seq, err := core.Run(g, tp, core.DefaultConfig(k))
			if err != nil {
				t.Fatal(err)
			}
			for _, ranks := range []int{1, 3} {
				dres, err := Run(NewEngine(g, Config{Ranks: ranks, RanksPerNode: 2}), tp, DefaultOptions(k))
				if err != nil {
					t.Fatal(err)
				}
				if !dres.Rho.Equal(seq.Rho) {
					t.Errorf("trial %d k=%d ranks=%d: Rho differs", trial, k, ranks)
				}
				if len(dres.Levels) != len(seq.Levels) {
					t.Fatalf("trial %d k=%d ranks=%d: %d levels, want %d", trial, k, ranks, len(dres.Levels), len(seq.Levels))
				}
				for i, want := range seq.Levels {
					got := dres.Levels[i]
					if got.Dist != want.Dist || got.Prototypes != want.Prototypes || got.ActiveVertices != want.ActiveVertices ||
						got.LabelsGenerated != want.LabelsGenerated || got.Complete != want.Complete {
						t.Errorf("trial %d k=%d ranks=%d level %d: %+v, want %+v", trial, k, ranks, i, got, want)
					}
				}
			}
		}
	}
}

// TestBalancedOwnersViewMatchesBitvec pins the repartitioning equivalence:
// owners computed from the level's original active bit vector must equal
// owners computed from the compacted view's vertices mapped back through
// OrigBits, for every rank count.
func TestBalancedOwnersViewMatchesBitvec(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	g := randomGraph(rng, 80, 200, 3)
	s := core.NewFullState(g)
	for v := 0; v < 80; v++ {
		if rng.Intn(3) != 0 {
			s.DeactivateVertex(graph.VertexID(v))
		}
	}
	var m core.Metrics
	cs := core.CompactState(s, &m, nil)
	if cs.View() == nil {
		t.Fatal("compaction did not fire")
	}
	verts, _ := cs.View().OrigBits(cs.VertexBits(), cs.EdgeBits())
	for _, ranks := range []int{1, 2, 5} {
		want := BalancedOwners(s.VertexBits(), ranks)
		got := BalancedOwners(verts, ranks)
		if len(want) != len(got) {
			t.Fatalf("ranks %d: length %d vs %d", ranks, len(got), len(want))
		}
		for v := range want {
			if want[v] != got[v] {
				t.Fatalf("ranks %d vertex %d: owner %d vs %d", ranks, v, got[v], want[v])
			}
		}
	}
}

// TestDistSharedCacheMatchesSequential runs the distributed pipeline twice
// against one caller-owned shared NLCC store (Options.SharedCache): both the
// cold and the warm run must stay bit-identical to the sequential engine,
// and the warm run must actually recycle verdicts recorded by the cold one.
func TestDistSharedCacheMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	g := randomGraph(rng, 40, 120, 3)
	tp := pattern.MustNew([]pattern.Label{0, 1, 2, 0},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 2, J: 3}, {I: 0, J: 3}})
	cfg := core.DefaultConfig(2)
	cfg.CountMatches = true
	seq, err := core.Run(g, tp, cfg)
	if err != nil {
		t.Fatal(err)
	}

	shared := core.NewCacheBytes(g.NumVertices(), 0)
	opts := DefaultOptions(2)
	opts.CountMatches = true
	opts.SharedCache = shared
	for round := 0; round < 2; round++ {
		e := NewEngine(g, Config{Ranks: 4, RanksPerNode: 2})
		dres, err := Run(e, tp, opts)
		if err != nil {
			t.Fatal(err)
		}
		for pi := range seq.Set.Protos {
			if !dres.Solutions[pi].Verts.Equal(seq.Solutions[pi].Verts) {
				t.Errorf("round %d proto %d: vertex sets differ", round, pi)
			}
			if dres.Solutions[pi].MatchCount != seq.Solutions[pi].MatchCount {
				t.Errorf("round %d proto %d: counts %d vs %d",
					round, pi, dres.Solutions[pi].MatchCount, seq.Solutions[pi].MatchCount)
			}
		}
		if round == 0 {
			if shared.Sets() == 0 {
				t.Fatal("cold distributed run recorded nothing in the shared store")
			}
		} else if shared.Hits() == 0 {
			t.Fatal("warm distributed run recycled nothing from the shared store")
		}
	}
}
