package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"approxmatch/internal/bitvec"
	"approxmatch/internal/core"
	"approxmatch/internal/datagen"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
)

func testGraph() *graph.Graph {
	b := graph.NewBuilder(0)
	a0 := b.AddVertex(1)
	a1 := b.AddVertex(2)
	a2 := b.AddVertex(3)
	b.AddEdge(a0, a1)
	b.AddEdge(a1, a2)
	b.AddEdge(a0, a2)
	c0 := b.AddVertex(1)
	c1 := b.AddVertex(2)
	c2 := b.AddVertex(3)
	b.AddEdge(c0, c1)
	b.AddEdge(c1, c2)
	return b.Build()
}

const triangleTemplate = `v 0 1
v 1 2
v 2 3
e 0 1
e 1 2
e 0 2
`

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(New(testGraph()).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestMatchEndpoint(t *testing.T) {
	srv := newTestServer(t)
	body, _ := json.Marshal(MatchRequest{Template: triangleTemplate, K: 1, Count: true, Vectors: true})
	resp := postJSON(t, srv.URL+"/match", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out MatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Prototypes) != 4 {
		t.Fatalf("prototypes = %d", len(out.Prototypes))
	}
	if out.Prototypes[0].MatchCount == nil || *out.Prototypes[0].MatchCount != 1 {
		t.Errorf("base count = %v", out.Prototypes[0].MatchCount)
	}
	if out.Labels == 0 {
		t.Error("no labels")
	}
	if len(out.Vectors) == 0 {
		t.Error("no vectors")
	}
	if mv, ok := out.Vectors["0"]; !ok || len(mv) != 4 {
		t.Errorf("vertex 0 vector = %v", out.Vectors["0"])
	}
}

func TestExploreEndpoint(t *testing.T) {
	srv := newTestServer(t)
	// Only the approximate instance exists for a 4-clique... use the
	// triangle on a graph where the exact match exists: found at 0.
	body, _ := json.Marshal(MatchRequest{Template: triangleTemplate, K: 2})
	resp := postJSON(t, srv.URL+"/explore", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out ExploreResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.FoundDist != 0 {
		t.Errorf("found at %d, want 0", out.FoundDist)
	}
	if out.MatchingVertices != 3 {
		t.Errorf("matching vertices = %d", out.MatchingVertices)
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Vertices != 6 || out.Edges != 5 {
		t.Errorf("stats = %+v", out)
	}
}

func TestBadRequests(t *testing.T) {
	srv := newTestServer(t)
	cases := []string{
		`{`,                                   // malformed JSON
		`{"template": "x y z", "k": 1}`,       // bad template
		`{"template": "v 0 1", "k": 99}`,      // k out of range
		`{"template": "v 0 1\nv 1 2", "k":1}`, // disconnected template
	}
	for _, c := range cases {
		resp := postJSON(t, srv.URL+"/match", c)
		if resp.StatusCode == http.StatusOK {
			t.Errorf("request %q accepted", c)
		}
	}
	// Wrong method.
	resp, err := http.Get(srv.URL + "/match")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("GET /match accepted")
	}
}

// perSolutionVectors is the /match vector derivation buildMatchResponse used
// before it read Result.Rho: for every vertex of the solutions' union, probe
// each prototype's solution in index order.
func perSolutionVectors(res *core.Result) map[string][]int {
	out := map[string][]int{}
	union := bitvec.New(res.Graph.NumVertices())
	for _, sol := range res.Solutions {
		if sol != nil {
			union.Or(sol.Verts)
		}
	}
	union.ForEach(func(v int) {
		var mv []int
		for pi, sol := range res.Solutions {
			if sol != nil && sol.Verts.Get(v) {
				mv = append(mv, pi)
			}
		}
		out[strconv.Itoa(int(res.Graph.ExternalID(graph.VertexID(v))))] = mv
	})
	return out
}

// TestMatchVectorsFromRho checks /match's vectors, read from the result's
// Rho matrix (Def. 3's match vectors), against the per-solution derivation:
// on an R-MAT graph and a degree-relabeled one, where some vertex sits in
// two or more prototypes, and on a budget-partial result, whose unfinished
// levels have nil solutions and zero Rho columns.
func TestMatchVectorsFromRho(t *testing.T) {
	rmat, rmatTpl := datagen.RMATWithPattern(10)
	relabeled := graph.RelabelByDegree(relabelTestGraph())
	if !relabeled.Relabeled() {
		t.Fatal("test graph relabeled to identity")
	}
	triangle, err := pattern.Parse(strings.NewReader(triangleTemplate))
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, res *core.Result) {
		t.Helper()
		resp := buildMatchResponse(res, &MatchRequest{K: res.Set.MaxDist, Vectors: true}, 0)
		if want := perSolutionVectors(res); !reflect.DeepEqual(resp.Vectors, want) {
			t.Fatalf("vectors %v, want %v", resp.Vectors, want)
		}
		shared := false
		for _, mv := range resp.Vectors {
			shared = shared || len(mv) >= 2
		}
		if !shared {
			t.Fatal("no vertex matches two prototypes; the case checks nothing about the vector order")
		}
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		tpl  *pattern.Template
		k    int
	}{
		{"rmat", rmat, rmatTpl, 2},
		{"relabeled", relabeled, triangle, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := core.Run(tc.g, tc.tpl, core.DefaultConfig(tc.k))
			if err != nil {
				t.Fatal(err)
			}
			check(t, res)
		})
	}
	t.Run("partial", func(t *testing.T) {
		// Grow the work budget until a run completes some level but not all.
		for work := int64(16); ; work += work / 4 {
			cfg := core.DefaultConfig(2)
			cfg.Budget = core.Budget{MaxWork: work}
			res, err := core.Run(rmat, rmatTpl, cfg)
			if !errors.Is(err, core.ErrBudgetExhausted) {
				t.Fatalf("work budget %d: err %v; no budget left a level unfinished after completing one", work, err)
			}
			if !res.Levels[0].Complete {
				continue
			}
			unfinished := 0
			for pi, p := range res.Set.Protos {
				// Levels run from δ=MaxDist down, placeholders included.
				if res.Levels[res.Set.MaxDist-p.Dist].Complete {
					continue
				}
				unfinished++
				if res.Solutions[pi] != nil {
					t.Fatalf("unfinished prototype %d has a solution", pi)
				}
				for v := 0; v < rmat.NumVertices(); v++ {
					if res.Rho.Get(v, pi) {
						t.Fatalf("unfinished prototype %d has Rho bit for vertex %d", pi, v)
					}
				}
			}
			if unfinished == 0 {
				t.Fatal("partial result has no unfinished prototype")
			}
			check(t, res)
			return
		}
	})
}
