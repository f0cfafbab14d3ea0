// Package router is the replica router behind amatchd -ranks-addr: a
// Coordinator spreads /match and /explore queries round-robin, with
// failover, over a group of amatchd worker processes. Each worker is a
// whole-graph read replica serving plain HTTP; the coordinator posts it the
// query body and relays the reply's status, Content-Type and body
// unchanged.
package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"approxmatch/internal/graph"
)

// idlePerWorker bounds the keep-alive connections the coordinator pools per
// worker. It is well above net/http's default of 2 because every new
// connection costs a GET /signature exchange before its first query;
// concurrent queries beyond it open (and then drop) extra connections.
const idlePerWorker = 64

// SignatureReply is the body of amatchd's GET /signature: the graph epoch
// the server is on and that epoch's GraphSignature. The signature travels
// as a decimal string so JSON tools that read numbers as doubles keep all
// 64 bits.
type SignatureReply struct {
	Epoch     uint64 `json:"epoch"`
	Signature uint64 `json:"signature,string"`
}

// Coordinator routes queries round-robin over a worker group through one
// keep-alive HTTP client, failing over to the next worker on transport
// errors. Every connection the client opens is vetted before it carries a
// query: the worker must answer GET /signature on it with the group's
// signature. So a worker restarted at the same address on a different graph
// — whether a query failed on it or its idle connections just closed — is
// never routed to. A fired context deadline is returned, not failed over: a
// slow query retried elsewhere would only double the work.
type Coordinator struct {
	addrs   []string
	sig     uint64
	timeout time.Duration
	client  *http.Client
	next    atomic.Uint64
}

// ErrNoWorkers reports a query that every worker of the group failed.
var ErrNoWorkers = errors.New("router: no reachable rank worker")

// DialGroupWithin checks every worker's graph signature, validates that
// the group serves one graph (all signatures equal — and equal to expectSig
// when non-zero, the coordinator's own graph), and returns the coordinator.
// timeout bounds each dial and each query exchange (0 = 5s). budget is the
// startup budget: a worker that refuses the dial or is not ready yet (503
// from its ready gate) is retried with capped exponential backoff plus
// jitter until budget elapses, so a coordinator started in parallel with
// its workers waits for them instead of aborting on the first refused
// connection. budget <= 0 means one attempt per worker. Permanent
// mismatches — a worker serving the wrong graph signature, or a split
// group — fail immediately: waiting cannot fix a wrong graph.
func DialGroupWithin(addrs []string, expectSig uint64, timeout, budget time.Duration) (*Coordinator, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	if len(addrs) == 0 {
		return nil, errors.New("router: empty rank group")
	}
	var deadline time.Time
	if budget > 0 {
		deadline = time.Now().Add(budget)
	}
	// Jitter spreads retries across workers so restarting coordinators do
	// not retry in lockstep.
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	co := &Coordinator{addrs: addrs, timeout: timeout}
	for i, addr := range addrs {
		sig, err := probe(addr, timeout)
		for attempt := 0; err != nil && !deadline.IsZero(); attempt++ {
			// Capped exponential backoff: 50ms, 100ms, ... up to 2s, each
			// scaled by a jitter factor in [0.5, 1).
			back := min(50*time.Millisecond<<uint(min(attempt, 6)), 2*time.Second)
			back = time.Duration(float64(back) * (0.5 + rng.Float64()/2))
			remaining := time.Until(deadline)
			if remaining <= 0 {
				break
			}
			time.Sleep(min(back, remaining))
			sig, err = probe(addr, timeout)
		}
		if err != nil {
			return nil, fmt.Errorf("router: rank worker %s: %w", addr, err)
		}
		if expectSig != 0 && sig != expectSig {
			return nil, fmt.Errorf("router: rank worker %s serves graph signature %d, coordinator has %d",
				addr, sig, expectSig)
		}
		if i == 0 {
			co.sig = sig
		} else if sig != co.sig {
			return nil, fmt.Errorf("router: rank group is split: %s serves signature %d, %s serves %d",
				addr, sig, addrs[0], co.sig)
		}
	}
	co.client = &http.Client{Transport: &http.Transport{
		DialContext:         co.dial,
		MaxIdleConnsPerHost: idlePerWorker,
	}}
	return co, nil
}

// Size returns the number of workers in the group.
func (co *Coordinator) Size() int { return len(co.addrs) }

// Do posts one query body to path ("/match" or "/explore") on the group and
// returns the worker's status, Content-Type and body. Round-robin with
// failover on transport errors; a context cancellation or deadline is
// returned as-is.
func (co *Coordinator) Do(ctx context.Context, path string, body []byte) (status int, contentType string, resp []byte, err error) {
	start := co.next.Add(1)
	var lastErr error
	for i := range co.addrs {
		addr := co.addrs[(start+uint64(i))%uint64(len(co.addrs))]
		status, contentType, resp, err = co.exchange(ctx, addr, path, body)
		if err == nil {
			return status, contentType, resp, nil
		}
		if ctx.Err() != nil {
			return 0, "", nil, ctx.Err()
		}
		// The exchange deadline is derived from the ctx deadline and can
		// fire a hair before ctx.Err() flips; an expired deadline is a
		// context timeout either way, not a worker failure to retry
		// elsewhere.
		if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
			return 0, "", nil, context.DeadlineExceeded
		}
		lastErr = err
	}
	return 0, "", nil, fmt.Errorf("%w: %w", ErrNoWorkers, lastErr)
}

// Close drops the pooled worker connections.
func (co *Coordinator) Close() { co.client.CloseIdleConnections() }

// exchange posts one query to the worker at addr under the per-exchange
// timeout and reads the whole reply.
func (co *Coordinator) exchange(ctx context.Context, addr, path string, body []byte) (int, string, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, co.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+path, bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := co.client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", nil, err
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), b, nil
}

// dial is the client's DialContext: a new connection carries queries only
// once the worker has answered GET /signature on it with the group's
// signature.
func (co *Coordinator) dial(ctx context.Context, _, addr string) (net.Conn, error) {
	c, sig, err := dialSigned(ctx, addr, co.timeout)
	if err != nil {
		return nil, err
	}
	if sig != co.sig {
		c.Close()
		return nil, fmt.Errorf("router: rank worker %s now serves graph signature %d, the group serves %d",
			addr, sig, co.sig)
	}
	return c, nil
}

// probe reads the signature of the worker at addr over a fresh connection.
func probe(addr string, timeout time.Duration) (uint64, error) {
	c, sig, err := dialSigned(context.TODO(), addr, timeout)
	if err != nil {
		return 0, err
	}
	c.Close()
	return sig, nil
}

// dialSigned opens a connection to the worker at addr and sends
// GET /signature on it, leaving the connection idle for the next request.
// Any status but 200 — a recovering server's 503 included — is an error, as
// is a reply that would leave the connection unusable.
func dialSigned(ctx context.Context, addr string, timeout time.Duration) (net.Conn, uint64, error) {
	c, err := (&net.Dialer{Timeout: timeout}).DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, 0, err
	}
	sig, err := readSignature(c, addr, timeout)
	if err != nil {
		c.Close()
		return nil, 0, err
	}
	return c, sig, nil
}

func readSignature(c net.Conn, addr string, timeout time.Duration) (uint64, error) {
	c.SetDeadline(time.Now().Add(timeout))
	defer c.SetDeadline(time.Time{})
	req, err := http.NewRequest(http.MethodGet, "http://"+addr+"/signature", nil)
	if err != nil {
		return 0, err
	}
	if err := req.Write(c); err != nil {
		return 0, err
	}
	br := bufio.NewReader(c)
	resp, err := http.ReadResponse(br, req)
	if err != nil {
		return 0, err
	}
	var reply SignatureReply
	if resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET /signature: %s", resp.Status)
	} else if err = json.NewDecoder(resp.Body).Decode(&reply); err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	if err == nil && (resp.Close || br.Buffered() > 0) {
		err = errors.New("GET /signature left the connection unusable")
	}
	return reply.Signature, err
}

// GraphSignature hashes the structural identity of g — vertex count, edge
// count, every vertex's label, degree and adjacency — into one value
// (FNV-1a). The coordinator compares signatures across its worker group
// (and against its own graph) at dial time, so a worker serving a different
// graph, a different relabeling, or a stale file is rejected before it can
// silently answer queries against the wrong data.
func GraphSignature(g *graph.Graph) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime
			x >>= 8
		}
	}
	n := g.NumVertices()
	mix(uint64(n))
	mix(uint64(g.NumDirectedEdges()))
	for v := 0; v < n; v++ {
		vid := graph.VertexID(v)
		mix(uint64(g.Label(vid)))
		nbrs := g.Neighbors(vid)
		mix(uint64(len(nbrs)))
		for _, w := range nbrs {
			mix(uint64(w))
		}
	}
	return h
}
