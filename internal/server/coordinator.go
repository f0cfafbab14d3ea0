package server

import (
	"bytes"
	"fmt"
	"net/http"

	"approxmatch/internal/dist"
)

// Coordinator-mode serving: with Config.Coordinator set, /match and
// /explore are routed to a group of amatchrank worker processes instead of
// the in-process engine. The request body is validated locally first (bad
// requests fail fast without a network hop), then forwarded verbatim —
// workers parse the same bytes, run the same serving stack, and the
// response is relayed untouched, so a routed query's body is byte-for-byte
// what the in-process engine would have produced for the same graph.
// Admission control and memory shedding are NOT applied on the
// coordinator: the rank group is the capacity being managed, and each
// worker runs its own scheduler. /stats, /metrics, /healthz (and /ingest
// if enabled) always stay local.

// forward routes one accepted query — body already read and validated
// against the same rules the worker will apply — to the rank group and
// relays the response.
func (s *Server) forward(w http.ResponseWriter, r *http.Request, q *request, endpoint byte, body []byte) {
	ctx, cancel := s.queryContext(r)
	defer cancel()
	status, contentType, resp, err := s.cfg.Coordinator.Do(ctx, endpoint, body)
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

// RankHandler adapts this server's full HTTP serving stack to the rank
// worker protocol: a routed query is replayed as an in-process HTTP
// request through Handler(), so it passes the same scheduler, caches,
// budgets and chaos configuration as a direct request — and produces the
// same bytes.
func (s *Server) RankHandler() dist.QueryHandler {
	h := s.Handler()
	return func(endpoint byte, body []byte) (int, string, []byte) {
		var path string
		switch endpoint {
		case dist.EndpointMatch:
			path = "/match"
		case dist.EndpointExplore:
			path = "/explore"
		default:
			return http.StatusNotFound, "text/plain; charset=utf-8", []byte("unknown endpoint\n")
		}
		req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		if err != nil {
			return http.StatusInternalServerError, "text/plain; charset=utf-8", []byte(err.Error())
		}
		req.Header.Set("Content-Type", "application/json")
		req.RemoteAddr = "coordinator"
		rec := &responseRecorder{status: http.StatusOK, header: make(http.Header)}
		h.ServeHTTP(rec, req)
		return rec.status, rec.header.Get("Content-Type"), rec.buf.Bytes()
	}
}

// responseRecorder is the minimal in-process http.ResponseWriter behind
// RankHandler (the stdlib recorder lives in httptest, a test package).
type responseRecorder struct {
	header http.Header
	buf    bytes.Buffer
	status int
	wrote  bool
}

func (r *responseRecorder) Header() http.Header { return r.header }

func (r *responseRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.status = code
		r.wrote = true
	}
}

func (r *responseRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.buf.Write(b)
}
