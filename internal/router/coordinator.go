// Package router is the replica router behind amatchd -ranks-addr: a
// Coordinator spreads /match and /explore queries round-robin, with
// failover, over a group of amatchrank worker processes, each a
// whole-graph read replica running the full serving stack behind a
// RankServer.
package router

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Coordinator protocol: how a front-end (amatchd) routes queries to a
// group of amatchrank worker processes, each serving the full graph.
// Frames use the format in wire.go. On connect the worker sends one hello
// frame:
//
//	[uvarint numVertices][uvarint numDirectedEdges][uvarint graphSignature]
//
// after which the connection is a lockstep request/response stream:
//
//	query  frame: [1B endpoint][request body ...]
//	result frame: [uvarint status][uvarint len(contentType)][contentType]
//	              [response body ...]
//
// The hello's graph signature (GraphSignature) is validated at dial time
// against the rest of the group — and optionally against the
// coordinator's own graph — so a worker serving a different graph, file
// or relabeling is rejected before it can answer queries against the
// wrong data. This is what makes the coordinator's byte-identity claim
// safe to rely on: same graph, same code path, same bytes.

// Query endpoints routed through a rank group.
const (
	EndpointMatch   byte = 1
	EndpointExplore byte = 2
)

// HelloInfo is the worker's self-description sent on every connection.
type HelloInfo struct {
	Vertices  int
	Edges     int // directed edges
	Signature uint64
}

// QueryHandler serves one routed query on the worker side. It returns the
// HTTP-equivalent status, the content type and the response body; the
// coordinator relays all three verbatim.
type QueryHandler func(endpoint byte, body []byte) (status int, contentType string, resp []byte)

func appendHello(dst []byte, h HelloInfo) []byte {
	body := binary.AppendUvarint(nil, uint64(h.Vertices))
	body = binary.AppendUvarint(body, uint64(h.Edges))
	body = binary.AppendUvarint(body, h.Signature)
	return appendFrame(dst, frameHello, body)
}

func parseHello(body []byte) (HelloInfo, error) {
	var h HelloInfo
	v, body, err := getUvarint(body)
	if err != nil {
		return h, err
	}
	e, body, err := getUvarint(body)
	if err != nil {
		return h, err
	}
	sig, _, err := getUvarint(body)
	if err != nil {
		return h, err
	}
	h.Vertices, h.Edges, h.Signature = int(v), int(e), sig
	return h, nil
}

// RankServer is the worker-side serve loop: it greets each connection
// with a hello frame, then answers query frames in lockstep. amatchrank
// wraps the full HTTP serving stack (scheduler, caches, budgets) behind
// the QueryHandler, so a routed query takes exactly the code path a
// direct HTTP request would.
type RankServer struct {
	ln    net.Listener
	hello HelloInfo
	h     QueryHandler

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewRankServer wraps an existing listener; Serve starts accepting.
func NewRankServer(ln net.Listener, hello HelloInfo, h QueryHandler) *RankServer {
	return &RankServer{ln: ln, hello: hello, h: h, conns: make(map[net.Conn]struct{})}
}

// Addr returns the listen address.
func (s *RankServer) Addr() string { return s.ln.Addr().String() }

// Serve accepts and serves connections until Close. It returns nil after
// a graceful Close, the accept error otherwise.
func (s *RankServer) Serve() error {
	for {
		c, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(c)
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting, tears down live connections and waits for their
// handlers to return.
func (s *RankServer) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.ln.Close()
	s.wg.Wait()
}

func (s *RankServer) serveConn(c net.Conn) {
	defer c.Close()
	if _, err := c.Write(appendHello(nil, s.hello)); err != nil {
		return
	}
	br := bufio.NewReader(c)
	for {
		class, body, err := readFrame(br)
		if err != nil || class != frameQuery || len(body) < 1 {
			return
		}
		status, ct, resp := s.h(body[0], body[1:])
		out := binary.AppendUvarint(nil, uint64(status))
		out = binary.AppendUvarint(out, uint64(len(ct)))
		out = append(out, ct...)
		out = append(out, resp...)
		if _, err := c.Write(appendFrame(nil, frameResult, out)); err != nil {
			return
		}
	}
}

// Coordinator routes queries round-robin over a rank group with failover:
// a worker whose connection fails is skipped (and lazily redialed on its
// next turn), and the query moves to the next worker. Context expiry is
// surfaced, not failed over — a slow query retried elsewhere would only
// double the work.
type Coordinator struct {
	workers []*workerConn
	hello   HelloInfo
	timeout time.Duration
	next    atomic.Uint64
}

// workerConn is one worker's client half; the mutex serializes the
// lockstep request/response exchange.
type workerConn struct {
	addr    string
	timeout time.Duration
	want    HelloInfo

	mu sync.Mutex
	c  net.Conn
	br *bufio.Reader
}

// ErrNoWorkers reports a rank group where every worker failed.
var ErrNoWorkers = errors.New("router: no reachable rank worker")

// DialGroup connects to every worker, validates that the group serves one
// graph (all hello signatures equal — and equal to expectSig when
// non-zero, the coordinator's own graph), and returns the coordinator.
// timeout bounds each dial and each query exchange (0 = 5s). Each worker
// gets exactly one dial attempt; see DialGroupWithin for startup
// resilience.
func DialGroup(addrs []string, expectSig uint64, timeout time.Duration) (*Coordinator, error) {
	return DialGroupWithin(addrs, expectSig, timeout, 0)
}

// DialGroupWithin is DialGroup with a startup budget: a worker whose dial
// or hello fails is retried with capped exponential backoff plus jitter
// until budget elapses, so a coordinator started in parallel with its
// workers (the common deployment race) waits for them instead of aborting
// on the first refused connection. budget <= 0 means one attempt per
// worker. Permanent mismatches — a worker serving the wrong graph
// signature, or a split group — fail immediately: waiting cannot fix a
// wrong graph.
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
	// Jitter is deterministic per call group but spread across workers so
	// restarting coordinators do not retry in lockstep.
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	co := &Coordinator{timeout: timeout}
	for i, addr := range addrs {
		w := &workerConn{addr: addr, timeout: timeout}
		hello, err := w.connect()
		for attempt := 0; err != nil && !deadline.IsZero(); attempt++ {
			// Capped exponential backoff: 50ms, 100ms, ... up to 2s, each
			// scaled by a jitter factor in [0.5, 1).
			back := 50 * time.Millisecond << uint(min(attempt, 6))
			if back > 2*time.Second {
				back = 2 * time.Second
			}
			back = time.Duration(float64(back) * (0.5 + rng.Float64()/2))
			if remaining := time.Until(deadline); remaining <= 0 {
				break
			} else if back > remaining {
				back = remaining
			}
			time.Sleep(back)
			hello, err = w.connect()
		}
		if err != nil {
			co.Close()
			return nil, fmt.Errorf("router: rank worker %s: %w", addr, err)
		}
		if expectSig != 0 && hello.Signature != expectSig {
			co.Close()
			w.close()
			return nil, fmt.Errorf("router: rank worker %s serves graph signature %016x, coordinator has %016x",
				addr, hello.Signature, expectSig)
		}
		if i == 0 {
			co.hello = hello
		} else if hello.Signature != co.hello.Signature {
			co.Close()
			w.close()
			return nil, fmt.Errorf("router: rank group is split: %s serves signature %016x, %s serves %016x",
				addr, hello.Signature, addrs[0], co.hello.Signature)
		}
		w.want = hello
		co.workers = append(co.workers, w)
	}
	return co, nil
}

// Hello returns the group's common graph description.
func (co *Coordinator) Hello() HelloInfo { return co.hello }

// Size returns the number of workers in the group.
func (co *Coordinator) Size() int { return len(co.workers) }

// Do routes one query to the group. Round-robin with failover on
// connection errors; a context cancellation or deadline is returned
// as-is.
func (co *Coordinator) Do(ctx context.Context, endpoint byte, body []byte) (status int, contentType string, resp []byte, err error) {
	start := co.next.Add(1)
	var lastErr error
	for i := 0; i < len(co.workers); i++ {
		w := co.workers[(start+uint64(i))%uint64(len(co.workers))]
		status, contentType, resp, err = w.roundTrip(ctx, endpoint, body)
		if err == nil {
			return status, contentType, resp, nil
		}
		if ctx.Err() != nil {
			return 0, "", nil, ctx.Err()
		}
		// The conn deadline is derived from the ctx deadline and can fire
		// a hair before ctx.Err() flips; an expired deadline is a context
		// timeout either way, not a worker failure to retry elsewhere.
		if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
			return 0, "", nil, context.DeadlineExceeded
		}
		lastErr = err
	}
	return 0, "", nil, fmt.Errorf("%w: %w", ErrNoWorkers, lastErr)
}

// Close tears down every worker connection.
func (co *Coordinator) Close() {
	for _, w := range co.workers {
		w.close()
	}
}

// dialWorker dials a worker and reads its hello greeting.
func dialWorker(addr string, timeout time.Duration) (net.Conn, *bufio.Reader, HelloInfo, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, nil, HelloInfo{}, err
	}
	br := bufio.NewReaderSize(c, 64<<10)
	c.SetReadDeadline(time.Now().Add(timeout))
	class, body, err := readFrame(br)
	c.SetReadDeadline(time.Time{})
	if err != nil {
		c.Close()
		return nil, nil, HelloInfo{}, fmt.Errorf("reading hello: %w", err)
	}
	if class != frameHello {
		c.Close()
		return nil, nil, HelloInfo{}, fmt.Errorf("expected hello frame, got class 0x%02x", class)
	}
	hello, err := parseHello(body)
	if err != nil {
		c.Close()
		return nil, nil, HelloInfo{}, fmt.Errorf("parsing hello: %w", err)
	}
	return c, br, hello, nil
}

// connect dials the worker and reads its hello.
func (w *workerConn) connect() (HelloInfo, error) {
	c, br, hello, err := dialWorker(w.addr, w.timeout)
	if err != nil {
		return HelloInfo{}, err
	}
	w.mu.Lock()
	w.c, w.br = c, br
	w.mu.Unlock()
	return hello, nil
}

func (w *workerConn) close() {
	w.mu.Lock()
	if w.c != nil {
		w.c.Close()
		w.c, w.br = nil, nil
	}
	w.mu.Unlock()
}

// roundTrip performs one lockstep exchange, redialing (and re-validating
// the graph signature) if the connection was lost.
func (w *workerConn) roundTrip(ctx context.Context, endpoint byte, body []byte) (int, string, []byte, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.c == nil {
		hello, err := w.reconnectLocked()
		if err != nil {
			return 0, "", nil, err
		}
		if hello.Signature != w.want.Signature {
			w.c.Close()
			w.c, w.br = nil, nil
			return 0, "", nil, fmt.Errorf("router: worker %s changed graph signature %016x -> %016x",
				w.addr, w.want.Signature, hello.Signature)
		}
	}
	deadline := time.Now().Add(w.timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	w.c.SetDeadline(deadline)
	defer func() {
		if w.c != nil {
			w.c.SetDeadline(time.Time{})
		}
	}()

	q := make([]byte, 0, len(body)+8)
	q = append(q, endpoint)
	q = append(q, body...)
	if _, err := w.c.Write(appendFrame(nil, frameQuery, q)); err != nil {
		w.dropLocked()
		return 0, "", nil, err
	}
	class, rbody, err := readFrame(w.br)
	if err != nil {
		w.dropLocked()
		return 0, "", nil, err
	}
	if class != frameResult {
		w.dropLocked()
		return 0, "", nil, fmt.Errorf("router: expected result frame, got class 0x%02x", class)
	}
	status, rbody, err := getUvarint(rbody)
	if err != nil {
		return 0, "", nil, err
	}
	ctLen, rbody, err := getUvarint(rbody)
	if err != nil || ctLen > uint64(len(rbody)) {
		return 0, "", nil, errTruncated
	}
	return int(status), string(rbody[:ctLen]), rbody[ctLen:], nil
}

// reconnectLocked redials under the held mutex.
func (w *workerConn) reconnectLocked() (HelloInfo, error) {
	c, br, hello, err := dialWorker(w.addr, w.timeout)
	if err != nil {
		return HelloInfo{}, err
	}
	w.c, w.br = c, br
	return hello, nil
}

func (w *workerConn) dropLocked() {
	if w.c != nil {
		w.c.Close()
		w.c, w.br = nil, nil
	}
}
