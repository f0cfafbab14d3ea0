package server

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
	"time"

	"approxmatch/internal/router"
)

// startRankWorker runs a full server stack behind the rank worker protocol
// on a loopback socket, the in-process equivalent of one amatchrank.
func startRankWorker(t *testing.T) string {
	t.Helper()
	g := testGraph()
	s := New(g)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rs := router.NewRankServer(ln, router.HelloInfo{
		Vertices:  g.NumVertices(),
		Edges:     g.NumDirectedEdges(),
		Signature: router.GraphSignature(g),
	}, s.RankHandler())
	go rs.Serve() //nolint:errcheck // exits on Close
	t.Cleanup(rs.Close)
	return rs.Addr()
}

// elapsedRe strips the one legitimately volatile response field before
// byte comparison.
var elapsedRe = regexp.MustCompile(`"elapsed_ms":\d+`)

func normalize(b []byte) string {
	return elapsedRe.ReplaceAllString(string(b), `"elapsed_ms":0`)
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCoordinatorByteIdentity is the satellite acceptance test: a query
// routed through a rank group must return byte-for-byte the body a direct
// in-process server produces (modulo wall time), for /match and /explore,
// for success and for validation failures.
func TestCoordinatorByteIdentity(t *testing.T) {
	workers := []string{startRankWorker(t), startRankWorker(t)}
	co, err := router.DialGroup(workers, router.GraphSignature(testGraph()), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	direct := newTestServer(t)
	proxied := httptest.NewServer(NewWithConfig(testGraph(), Config{Coordinator: co}).Handler())
	t.Cleanup(proxied.Close)

	cases := []struct {
		name, path, body string
	}{
		{"match", "/match", `{"template":"` + `v 0 1\nv 1 2\nv 2 3\ne 0 1\ne 1 2\ne 0 2\n` + `","k":1,"count":true,"vectors":true}`},
		{"match k0", "/match", `{"template":"` + `v 0 1\nv 1 2\nv 2 3\ne 0 1\ne 1 2\ne 0 2\n` + `","k":0}`},
		{"explore", "/explore", `{"template":"` + `v 0 1\nv 1 2\nv 2 3\ne 0 1\ne 1 2\ne 0 2\n` + `","max_k":2}`},
		{"bad template", "/match", `{"template":"nonsense","k":1}`},
		{"bad json", "/match", `{"template":`},
	}
	for _, c := range cases {
		dResp := postJSON(t, direct.URL+c.path, c.body)
		pResp := postJSON(t, proxied.URL+c.path, c.body)
		dBody, pBody := readAll(t, dResp), readAll(t, pResp)
		if dResp.StatusCode != pResp.StatusCode {
			t.Fatalf("%s: status %d via coordinator, %d direct", c.name, pResp.StatusCode, dResp.StatusCode)
		}
		if dct, pct := dResp.Header.Get("Content-Type"), pResp.Header.Get("Content-Type"); dct != pct {
			t.Fatalf("%s: content type %q via coordinator, %q direct", c.name, pct, dct)
		}
		if normalize(dBody) != normalize(pBody) {
			t.Fatalf("%s: body differs\ncoordinator: %s\ndirect:      %s", c.name, pBody, dBody)
		}
	}
}

// TestCoordinatorSheddingSkipped: the coordinator must not apply its own
// admission control to routed queries — the rank group is the capacity.
// Local endpoints (/stats, /healthz) stay local and keep working.
func TestCoordinatorLocalEndpointsStayLocal(t *testing.T) {
	workers := []string{startRankWorker(t)}
	co, err := router.DialGroup(workers, 0, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	proxied := httptest.NewServer(NewWithConfig(testGraph(), Config{Coordinator: co}).Handler())
	t.Cleanup(proxied.Close)
	for _, path := range []string{"/stats", "/healthz", "/metrics"} {
		resp, err := http.Get(proxied.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
}

// TestCoordinatorWorkerDownIs502: with the whole group unreachable a valid
// query surfaces 502, while a malformed one still fails fast locally with
// 400 (validation happens before the network hop).
func TestCoordinatorWorkerDownIs502(t *testing.T) {
	g := testGraph()
	s := New(g)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rs := router.NewRankServer(ln, router.HelloInfo{Signature: router.GraphSignature(g)}, s.RankHandler())
	go rs.Serve() //nolint:errcheck
	co, err := router.DialGroup([]string{rs.Addr()}, 0, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	rs.Close()
	proxied := httptest.NewServer(NewWithConfig(testGraph(), Config{Coordinator: co}).Handler())
	t.Cleanup(proxied.Close)

	resp := postJSON(t, proxied.URL+"/match", `{"template":"`+`v 0 1\nv 1 2\nv 2 3\ne 0 1\ne 1 2\ne 0 2\n`+`","k":1}`)
	readAll(t, resp)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("valid query with dead group: status %d, want 502", resp.StatusCode)
	}
	resp = postJSON(t, proxied.URL+"/match", `{"template":"nonsense","k":1}`)
	readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed query: status %d, want 400 (local validation)", resp.StatusCode)
	}
}
