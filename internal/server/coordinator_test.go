package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
	"time"

	"approxmatch/internal/router"
)

// startWorker runs a full server stack on a loopback port, the in-process
// equivalent of one amatchd worker, and returns its address and server.
func startWorker(t *testing.T) (string, *httptest.Server) {
	t.Helper()
	ws := httptest.NewServer(New(testGraph()).Handler())
	t.Cleanup(ws.Close)
	return ws.Listener.Addr().String(), ws
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

func getSignature(t *testing.T, url string) router.SignatureReply {
	t.Helper()
	resp, err := http.Get(url + "/signature")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out router.SignatureReply
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCoordinatorByteIdentity: a query routed through a worker group must
// return byte-for-byte the body a direct in-process server produces
// (modulo wall time), for /match and /explore, for success and for
// validation failures.
func TestCoordinatorByteIdentity(t *testing.T) {
	a0, _ := startWorker(t)
	a1, _ := startWorker(t)
	co, err := router.DialGroupWithin([]string{a0, a1}, router.GraphSignature(testGraph()), 5*time.Second, 0)
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
		{"explore", "/explore", `{"template":"` + `v 0 1\nv 1 2\nv 2 3\ne 0 1\ne 1 2\ne 0 2\n` + `","k":2}`},
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

// TestCoordinatorLocalEndpointsStayLocal: the coordinator must not apply
// its own admission control to routed queries — the worker group is the
// capacity. Local endpoints (/stats, /healthz, /metrics, /signature) stay
// local and keep working.
func TestCoordinatorLocalEndpointsStayLocal(t *testing.T) {
	a, _ := startWorker(t)
	co, err := router.DialGroupWithin([]string{a}, 0, 5*time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	proxied := httptest.NewServer(NewWithConfig(testGraph(), Config{Coordinator: co}).Handler())
	t.Cleanup(proxied.Close)
	for _, path := range []string{"/stats", "/healthz", "/metrics", "/signature"} {
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
	a, ws := startWorker(t)
	co, err := router.DialGroupWithin([]string{a}, 0, time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	ws.Close()
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

// TestCoordinatorWaitsForReadyGate: a worker still behind its ready gate
// answers /signature with 503, which the dial treats as not ready yet.
func TestCoordinatorWaitsForReadyGate(t *testing.T) {
	gate := NewReadyGate()
	ws := httptest.NewServer(gate)
	t.Cleanup(ws.Close)
	addr := ws.Listener.Addr().String()
	if _, err := router.DialGroupWithin([]string{addr}, 0, time.Second, 0); err == nil {
		t.Fatal("dial accepted a worker behind its ready gate")
	}
	time.AfterFunc(200*time.Millisecond, func() { gate.Ready(New(testGraph()).Handler()) })
	co, err := router.DialGroupWithin([]string{addr}, router.GraphSignature(testGraph()), time.Second, 10*time.Second)
	if err != nil {
		t.Fatalf("worker never became ready: %v", err)
	}
	co.Close()
}

// TestSignatureFollowsEpoch: /signature reports the current epoch's
// GraphSignature, moved by an ingest that changes the graph.
func TestSignatureFollowsEpoch(t *testing.T) {
	s, srv := newIngestServer(t, Config{})
	want := router.SignatureReply{Signature: router.GraphSignature(testGraph())}
	if got := getSignature(t, srv.URL); got != want {
		t.Fatalf("signature %+v, want %+v", got, want)
	}
	if resp := postJSON(t, srv.URL+"/ingest", `{"insert":[[3,5]]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	snap := s.snaps.Acquire()
	defer snap.Release()
	want = router.SignatureReply{Epoch: 1, Signature: router.GraphSignature(snap.Graph())}
	if got := getSignature(t, srv.URL); got != want || got.Signature == router.GraphSignature(testGraph()) {
		t.Fatalf("after an ingest: signature %+v, want %+v", got, want)
	}
}
