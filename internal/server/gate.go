package server

import (
	"io"
	"net/http"
	"sync/atomic"
)

// ReadyGate fronts the HTTP handler during startup recovery: amatchd
// binds its listener before WAL replay begins (so probes see a live
// port, not connection refused), and the gate answers 503 with a
// Retry-After on every route — including /healthz and /match — until
// Ready installs the real handler. The swap is one atomic pointer store;
// requests racing it get whichever side they loaded, never a torn state.
type ReadyGate struct {
	h atomic.Pointer[http.Handler]
}

// NewReadyGate returns a gate in the not-ready state.
func NewReadyGate() *ReadyGate { return &ReadyGate{} }

// Ready installs h; every subsequent request is served by it.
func (g *ReadyGate) Ready(h http.Handler) { g.h.Store(&h) }

func (g *ReadyGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if hp := g.h.Load(); hp != nil {
		(*hp).ServeHTTP(w, r)
		return
	}
	w.Header().Set("Retry-After", "1")
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusServiceUnavailable)
	io.WriteString(w, "recovering\n")
}
