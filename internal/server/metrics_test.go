package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"approxmatch/internal/core"
	"approxmatch/internal/graph"
)

// TestWritePromCompactionCounters pins the Prometheus text rendering of the
// compaction counters and the active-fraction gauge, including the
// no-checks-yet divide-by-zero guard, and of the per-phase wall times, which
// must fold across queries (match counting included).
func TestWritePromCompactionCounters(t *testing.T) {
	r := newMetricsRegistry()

	// Before any query the gauge must render its neutral value, not NaN.
	var sb strings.Builder
	r.writeProm(&sb, 0, 0, 0, cacheGauges{}, walGauges{}, 0, 0, 0)
	for _, want := range []string{
		"amatchd_compaction_checks_total 0\n",
		"amatchd_compactions_total 0\n",
		"amatchd_compaction_bytes_reclaimed_total 0\n",
		"amatchd_pipeline_active_fraction{stage=\"pre\"} 1\n",
		"amatchd_pipeline_active_fraction{stage=\"post\"} 1\n",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("empty registry missing %q in:\n%s", want, sb.String())
		}
	}

	// Two queries' worth of pipeline metrics: 4 checks total, 1 fired.
	r.observePipeline(&core.Metrics{
		CompactionChecks:         3,
		Compactions:              1,
		CompactionBytesReclaimed: 4096,
		CompactionFracBefore:     0.25 + 0.5 + 0.75,
		CompactionFracAfter:      1 + 0.5 + 0.75,
		VerifyTime:               250 * time.Millisecond,
		CountTime:                500 * time.Millisecond,
	})
	r.observePipeline(&core.Metrics{
		CompactionChecks:     1,
		CompactionFracBefore: 0.5,
		CompactionFracAfter:  0.5,
		CountTime:            1500 * time.Millisecond,
	})
	r.record("match", outcomeOK, 5*time.Millisecond)

	sb.Reset()
	r.writeProm(&sb, 1, 2, 1<<20, cacheGauges{}, walGauges{}, 3, 2, 4096)
	got := sb.String()
	for _, want := range []string{
		"# TYPE amatchd_compaction_checks_total counter",
		"amatchd_compaction_checks_total 4\n",
		"amatchd_compactions_total 1\n",
		"amatchd_compaction_bytes_reclaimed_total 4096\n",
		"# TYPE amatchd_pipeline_active_fraction gauge",
		"amatchd_pipeline_active_fraction{stage=\"pre\"} 0.5\n",
		"amatchd_pipeline_active_fraction{stage=\"post\"} 0.6875\n",
		"amatchd_pipeline_phase_seconds_total{phase=\"verify\"} 0.25\n",
		"amatchd_pipeline_phase_seconds_total{phase=\"count\"} 2\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
}

// TestMetricsEndpointCompaction runs a real query that compacts and checks
// the counters surface on /metrics.
func TestMetricsEndpointCompaction(t *testing.T) {
	// testGraph plus a long path no template label matches: the candidate set
	// is a small fraction of the graph, so the pipeline compacts it.
	b := graph.NewBuilder(0)
	tg := testGraph()
	for v := 0; v < tg.NumVertices(); v++ {
		b.AddVertex(tg.Label(graph.VertexID(v)))
		for _, w := range tg.Neighbors(graph.VertexID(v)) {
			if int(w) < v {
				b.AddEdge(w, graph.VertexID(v))
			}
		}
	}
	prev := b.AddVertex(9)
	for i := 0; i < 40; i++ {
		next := b.AddVertex(9)
		b.AddEdge(prev, next)
		prev = next
	}
	s := NewWithConfig(b.Build(), Config{})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	body, _ := json.Marshal(MatchRequest{Template: triangleTemplate, K: 1})
	resp := postJSON(t, srv.URL+"/match", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("match status %d", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	prom, _ := io.ReadAll(mresp.Body)
	got := string(prom)
	if strings.Contains(got, "amatchd_compaction_checks_total 0\n") {
		t.Errorf("no compaction checks recorded:\n%s", got)
	}
	if strings.Contains(got, "amatchd_compactions_total 0\n") {
		t.Errorf("forced compaction never fired:\n%s", got)
	}
}
