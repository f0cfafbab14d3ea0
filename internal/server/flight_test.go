package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// pinFirstRun installs a testHookMatch that parks the first pipeline run
// until release is closed, and reports (by closing entered) once it is
// parked — at which point that query's flight is registered.
func pinFirstRun(t *testing.T) (entered, release chan struct{}) {
	t.Helper()
	entered, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	testHookMatch = func(*MatchRequest, int) {
		once.Do(func() {
			close(entered)
			<-release
		})
	}
	t.Cleanup(func() { testHookMatch = nil })
	return entered, release
}

func matchRequest(t *testing.T, ctx context.Context) *http.Request {
	t.Helper()
	payload, err := json.Marshal(MatchRequest{Template: triangleTemplate, K: 1, Count: true})
	if err != nil {
		t.Fatal(err)
	}
	return httptest.NewRequest(http.MethodPost, "/match", bytes.NewReader(payload)).WithContext(ctx)
}

// stalledWriter is a client connection whose first Write blocks until
// unblock is closed; writing is closed when that Write is entered.
type stalledWriter struct {
	*httptest.ResponseRecorder
	writing, unblock chan struct{}
	once             sync.Once
}

func (w *stalledWriter) Write(b []byte) (int, error) {
	w.once.Do(func() { close(w.writing) })
	<-w.unblock
	return w.ResponseRecorder.Write(b)
}

// doneProbe is a request context that reports its first Done() call. A
// coalesced follower derives its wait context from the request context
// right after joining the leader's flight, and context.WithTimeout asks the
// parent for Done() — so probed closing means "this follower is on the
// flight". (Were that ordering ever to change, the test below would lose
// its power to catch the bug, never its ability to pass on correct code.)
type doneProbe struct {
	context.Context
	probed chan struct{}
	once   sync.Once
}

func (c *doneProbe) Done() <-chan struct{} {
	c.once.Do(func() { close(c.probed) })
	return c.Context.Done()
}

// TestStalledLeaderDoesNotHoldFollowers: the leader's flight must complete
// before the leader's own response is written. A follower coalesced onto a
// leader whose client connection then stalls mid-write gets the leader's
// exact bytes while that write is still blocked.
func TestStalledLeaderDoesNotHoldFollowers(t *testing.T) {
	s := NewWithConfig(testGraph(), Config{ResultCacheBytes: 1 << 20})
	h := s.Handler()
	entered, release := pinFirstRun(t)

	leader := &stalledWriter{ResponseRecorder: httptest.NewRecorder(), writing: make(chan struct{}), unblock: make(chan struct{})}
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		h.ServeHTTP(leader, matchRequest(t, context.Background()))
	}()
	<-entered

	fctx := &doneProbe{Context: context.Background(), probed: make(chan struct{})}
	follower := httptest.NewRecorder()
	followerDone := make(chan struct{})
	go func() {
		defer close(followerDone)
		h.ServeHTTP(follower, matchRequest(t, fctx))
	}()
	<-fctx.probed
	close(release)
	<-leader.writing

	select {
	case <-followerDone:
	case <-time.After(10 * time.Second):
		close(leader.unblock)
		<-leaderDone
		t.Fatal("follower still waiting while the leader's response write is stalled")
	}
	close(leader.unblock)
	<-leaderDone

	if follower.Code != http.StatusOK || leader.Code != http.StatusOK {
		t.Fatalf("status: follower %d, leader %d", follower.Code, leader.Code)
	}
	if follower.Body.Len() == 0 || !bytes.Equal(follower.Body.Bytes(), leader.Body.Bytes()) {
		t.Fatalf("follower body differs from the leader's:\n%s\nvs\n%s", follower.Body, leader.Body)
	}
}

// TestFollowerDeadlineIs504: a coalesced follower whose wait outlives the
// query deadline must get an explicit 504 and a timeout outcome — not an
// implicit empty 200.
func TestFollowerDeadlineIs504(t *testing.T) {
	s := NewWithConfig(testGraph(), Config{
		ResultCacheBytes: 1 << 20,
		QueryTimeout:     20 * time.Millisecond,
		PartialGrace:     -1, // hard deadline at QueryTimeout
	})
	h := s.Handler()
	entered, release := pinFirstRun(t)

	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		h.ServeHTTP(httptest.NewRecorder(), matchRequest(t, context.Background()))
	}()
	<-entered

	follower := httptest.NewRecorder()
	h.ServeHTTP(follower, matchRequest(t, context.Background()))
	// Scrape while the leader is still pinned, so the only finished query
	// is the follower.
	prom := httptest.NewRecorder()
	h.ServeHTTP(prom, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	close(release)
	<-leaderDone

	if follower.Code != http.StatusGatewayTimeout {
		t.Fatalf("follower status = %d, want 504 (body %q)", follower.Code, follower.Body)
	}
	if !strings.Contains(follower.Body.String(), "timeout") {
		t.Fatalf("504 without a message: %q", follower.Body)
	}
	if !strings.Contains(prom.Body.String(), `amatchd_queries_total{endpoint="match",outcome="timeout"}`) {
		t.Fatalf("follower deadline not recorded as a timeout outcome:\n%s", prom.Body)
	}
}
