package server

import (
	"fmt"
	"net/http"

	"approxmatch/internal/router"
)

// Coordinator-mode serving: with Config.Coordinator set, /match and
// /explore are routed to a group of amatchd worker processes instead of the
// in-process engine. The request body is validated locally first (bad
// requests fail fast without a network hop), then posted verbatim — workers
// parse the same bytes, run the same serving stack, and the response is
// relayed untouched, so a routed query's body is byte-for-byte what the
// in-process engine would have produced for the same graph. Admission
// control and memory shedding are NOT applied on the coordinator: the group
// is the capacity being managed, and each worker runs its own scheduler.
// /stats, /metrics, /healthz, /signature (and /ingest if enabled) always
// stay local.

// forward routes one accepted query — body already read and validated
// against the same rules the worker will apply — to the group and relays
// the response.
func (s *Server) forward(w http.ResponseWriter, r *http.Request, q *request, body []byte) {
	ctx, cancel := s.queryContext(r)
	defer cancel()
	status, contentType, resp, err := s.cfg.Coordinator.Do(ctx, r.URL.Path, body)
	if err != nil {
		s.reject(w, r, q, http.StatusBadGateway, outcomeProxyError, fmt.Sprintf("rank group unavailable: %v", err))
		return
	}
	if contentType != "" {
		w.Header().Set("Content-Type", contentType)
	}
	w.WriteHeader(status)
	w.Write(resp) //nolint:errcheck // client write failures are the client's problem
	s.finish(r, q, outcomeProxied, status)
}

// handleSignature serves the current epoch's router.GraphSignature, which a
// coordinator checks on every connection before it routes queries here.
// The O(V+E) hash runs on the first request in each epoch and is cached.
func (s *Server) handleSignature(w http.ResponseWriter, r *http.Request) {
	snap := s.snaps.Acquire()
	defer snap.Release()
	reply := s.sig.Load()
	if reply == nil || reply.Epoch != snap.Epoch() {
		reply = &router.SignatureReply{Epoch: snap.Epoch(), Signature: router.GraphSignature(snap.Graph())}
		s.sig.Store(reply)
	}
	writeJSON(w, reply)
}
