package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"approxmatch/internal/datagen"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
)

// tinyReddit is a test-sized stand-in for the rdt workloads: the same
// generator, pool and mix on a graph small enough for tier-1.
func tinyReddit(writerHz float64) *workload {
	return &workload{
		name: "tiny.rdt",
		build: func() (*graph.Graph, []query) {
			cfg := datagen.RedditConfig{NumAuthors: 200, NumSubreddits: 10, NumPosts: 400, NumComments: 800, Seed: 2, PlantAdversarial: 5}
			return datagen.Reddit(cfg), subTemplatePool(datagen.RDT1(), "RDT-1", redditPoolSize)
		},
		cache: true, zipf: true, writerHz: writerHz,
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	w := tinyReddit(1)
	g, pool := w.build()
	a, b, c := newMix(w, pool, 7), newMix(w, pool, 7), newMix(w, pool, 8)
	differs := false
	for i := uint64(0); i < 200; i++ {
		qa, ba := a.request(i)
		qb, bb := b.request(i)
		if qa != qb || !bytes.Equal(ba, bb) {
			t.Fatalf("request %d differs under one seed", i)
		}
		if _, bc := c.request(i); !bytes.Equal(ba, bc) {
			differs = true
		}
	}
	if !differs {
		t.Error("another seed gave the same request sequence")
	}
	da, db, dc := genBatches(g, 7, 20), genBatches(g, 7, 20), genBatches(g, 8, 20)
	for i := range da {
		if !bytes.Equal(da[i].body, db[i].body) {
			t.Fatalf("batch %d differs under one seed", i)
		}
	}
	if bytes.Equal(da[0].body, dc[0].body) {
		t.Error("another seed gave the same first batch")
	}
	if inputHash(a, da, 100) != inputHash(b, db, 100) || inputHash(a, da, 100) == inputHash(c, dc, 100) {
		t.Error("input hash does not follow the seed")
	}
}

func TestEveryDeltaApplies(t *testing.T) {
	g, _ := tinyReddit(1).build()
	for i, b := range genBatches(g, 3, 60) {
		if i > 0 && (len(b.delta.Insert) != batchInserts || len(b.delta.Delete) != batchDeletes || len(b.delta.Relabels) != batchRelabels) {
			t.Fatalf("batch %d: %d inserts %d deletes %d relabels", i, len(b.delta.Insert), len(b.delta.Delete), len(b.delta.Relabels))
		}
		next, _, err := graph.ApplyDelta(g, b.delta)
		if err != nil {
			t.Fatalf("batch %d rejected: %v", i, err)
		}
		g = next
	}
}

func TestRelabelingsAreIsomorphic(t *testing.T) {
	for _, w := range workloads {
		_, pool := w.build()
		m := newMix(&w, pool, 5)
		for i := uint64(0); i < 64; i++ {
			qi, body := m.request(i)
			var mb matchBody
			if err := json.Unmarshal(body, &mb); err != nil {
				t.Fatal(err)
			}
			got, err := pattern.Parse(strings.NewReader(mb.Template))
			if err != nil {
				t.Fatalf("%s request %d does not parse: %v", w.name, i, err)
			}
			base := pool[qi].t
			if !pattern.Isomorphic(got, base) || pattern.CanonicalKey(got) != pattern.CanonicalKey(base) {
				t.Fatalf("%s request %d is not isomorphic to %s", w.name, i, pool[qi].name)
			}
			if mb.K != pool[qi].k {
				t.Fatalf("%s request %d: k=%d, want %d", w.name, i, mb.K, pool[qi].k)
			}
		}
	}
}

func TestPoolIsPairwiseNonIsomorphic(t *testing.T) {
	pool := subTemplatePool(datagen.RDT1(), "RDT-1", redditPoolSize)
	if len(pool) != redditPoolSize {
		t.Fatalf("pool has %d entries", len(pool))
	}
	for i := range pool {
		for j := i + 1; j < len(pool); j++ {
			if pattern.Isomorphic(pool[i].t, pool[j].t) {
				t.Errorf("%s and %s are isomorphic", pool[i].name, pool[j].name)
			}
		}
	}
}

// The traced run end to end on a tiny graph: every response and the
// recovery must check out, every per-layer metric must be reported, and in
// every span tree the self times must sum to the root.
func TestTracedRunSelfTimesSumToRoot(t *testing.T) {
	for _, w := range []*workload{tinyReddit(0), tinyReddit(1), {
		name: "tiny.cold",
		build: func() (*graph.Graph, []query) {
			g, pool := tinyReddit(0).build()
			return g, pool[:3]
		},
	}} {
		outDir := t.TempDir()
		res, err := runTraced(w, 1, 0.2, t.TempDir(), outDir)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted == 0 {
			t.Fatalf("%s writer=%g: correct=%t attempted=%d: %s", w.name, w.writerHz, res.Correct, res.Attempted, res.FirstFailure)
		}
		for _, d := range perLayer {
			if _, ok := res.Metrics[d.name]; !ok {
				t.Errorf("per-layer metric %s not reported", d.name)
			}
		}
		b, err := os.ReadFile(filepath.Join(outDir, "trace."+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(b, &spans); err != nil {
			t.Fatal(err)
		}
		self := selfTimes(spans)
		rootOf := map[int]int{}
		sums := map[int]int64{}
		for _, s := range spans { // parents precede children
			root := s.ID
			if s.Parent != 0 {
				root = rootOf[s.Parent]
				if spans[s.Parent-1].Req != s.Req {
					t.Fatalf("span %d does not share its parent's request id", s.ID)
				}
			}
			rootOf[s.ID] = root
			sums[root] += self[s.ID]
		}
		for root, sum := range sums {
			if want := spans[root-1].dur(); sum != want {
				t.Fatalf("tree of span %d (%s): self times sum to %d ns, root took %d ns", root, spans[root-1].Name, sum, want)
			}
		}
	}
}

func TestOracleRejectsWrongBodies(t *testing.T) {
	e := expectation{protos: []protoKey{{0, 5, 2}, {1, 9, 7}}, labels: 14}
	good := `{"prototypes":[{"index":0,"dist":1,"vertices":9,"matches":7,"exact":true},{"index":1,"dist":0,"vertices":5,"matches":2,"exact":true}],"labels":14,"vectors":{},"elapsed_ms":3,"partial":false}`
	if err := e.check([]byte(good), true); err != nil {
		t.Fatalf("reordered prototypes rejected: %v", err)
	}
	for name, bad := range map[string]string{
		"count":   strings.Replace(good, `"matches":7`, `"matches":8`, 1),
		"labels":  strings.Replace(good, `"labels":14`, `"labels":15`, 1),
		"partial": strings.Replace(good, `"partial":false`, `"partial":true`, 1),
		"inexact": strings.Replace(good, `"exact":true`, `"exact":false`, 1),
	} {
		if e.check([]byte(bad), true) == nil {
			t.Errorf("wrong %s accepted", name)
		}
	}
	// A read racing the writer may see another epoch's counts, never
	// another shape.
	if err := e.check([]byte(strings.Replace(good, `"matches":7`, `"matches":8`, 1)), false); err != nil {
		t.Errorf("inexact check rejected another epoch's count: %v", err)
	}
	if e.check([]byte(strings.Replace(good, `"dist":1`, `"dist":2`, 1)), false) == nil {
		t.Error("inexact check accepted another prototype shape")
	}
	if !sameModuloElapsed([]byte(good), []byte(strings.Replace(good, `"elapsed_ms":3`, `"elapsed_ms":41`, 1))) {
		t.Error("bodies differing only in elapsed_ms reported different")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v", q1, q2, q3)
	}
	if l, v, ok := tail(make([]float64, 99)); ok {
		t.Errorf("99 samples gave tail %s %v", l, v)
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if l, v, _ := tail(xs); l != "p99" || v != 989 {
		t.Errorf("tail of 1000 samples: %s %v", l, v)
	}
}

func TestCompareVerdicts(t *testing.T) {
	bf, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	runs := func(workload string, failed int, p50 ...float64) []*result {
		var out []*result
		for _, v := range p50 {
			out = append(out, &result{Workload: workload, Attempted: 100, Failed: failed, Metrics: map[string]metric{"query_p50_ms": {v, "ms"}}})
		}
		return out
	}
	verdict := func(old, new []*result) (string, int) {
		rows, code := compareRuns(bf, old, new)
		f := strings.Fields(rows[0])
		return f[len(f)-1], code
	}
	base := runs("w", 0, 100, 101, 99, 100, 100)
	for _, c := range []struct {
		new  []*result
		want string
		code int
	}{
		{runs("w", 0, 100, 102, 99, 101, 100), "same", 0},
		{runs("w", 0, 50, 51, 49, 50, 50), "better", 0},
		{runs("w", 0, 200, 202, 198, 200, 200), "worse", 1},
		{runs("w", 0, 60, 100, 140, 180, 220), "unresolved", 0},
		{runs("w", 1, 100, 101, 99, 100, 100), "same", 1}, // fail_ratio rose
	} {
		if got, code := verdict(base, c.new); got != c.want || code != c.code {
			t.Errorf("new=%v: verdict %s code %d, want %s code %d", c.new[0].Metrics, got, code, c.want, c.code)
		}
	}
}

// BENCHMARK.json and the metric tables in main.go name the same metrics
// and workloads, and the bounds obey the contract.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	bf, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) || len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d/%d/%d end-to-end/per-layer/workloads, the tables %d/%d/%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(bf.Workloads), len(endToEnd), len(perLayer), len(workloads))
	}
	var setupBound, maxBound float64
	for i, d := range endToEnd {
		m := bf.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %+v, table has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > maxBound {
			maxBound = m.Bound
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %g is not the largest (%g)", setupBound, maxBound)
	}
	for i, d := range perLayer {
		if m := bf.PerLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, table has %+v", i, m, d)
		}
	}
	for i, w := range workloads {
		if m := bf.Workloads[i]; m.Name != w.name || m.Why != w.why || len(m.Why) > 200 {
			t.Errorf("workloads[%d] = %+v, table has %s / %s", i, m, w.name, w.why)
		}
	}
}
