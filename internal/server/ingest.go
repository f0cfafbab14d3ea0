package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"time"

	"approxmatch/internal/graph"
)

// Live-graph ingest (POST /ingest, behind Config.EnableIngest). A batch of
// edge inserts/deletes and vertex relabels is validated and applied as one
// atomic epoch swap: the next-epoch CSR is built off to the side
// (graph.ApplyDelta), published with a single pointer store, and in-flight
// queries keep reading the snapshot they pinned at admission. On success both
// cross-query caches are purged — the epoch participates in every result
// cache key, so even a stale single-flight leader finishing late cannot
// resurface a pre-ingest body to post-ingest queries — and /stats is
// recomputed for the new epoch.
//
// Rejection is all-or-nothing: a batch that fails validation (malformed rows,
// out-of-range endpoints, inserting a present edge, deleting an absent one,
// intra-batch conflicts) changes nothing, not even the epoch.

// IngestRequest is the /ingest request body. Rows are positional arrays —
// compact enough that a million-edge batch stays well under the body cap:
//
//	{
//	  "insert":  [[u, v], [u, v, edgeLabel], ...],
//	  "delete":  [[u, v], ...],
//	  "relabel": [[vertex, label], ...]
//	}
//
// Insert rows carry an optional third element, the edge label (only valid on
// edge-labeled graphs). All values must be non-negative and fit in 32 bits.
type IngestRequest struct {
	Insert  [][]int64 `json:"insert"`
	Delete  [][]int64 `json:"delete"`
	Relabel [][]int64 `json:"relabel"`
}

// IngestResponse reports one applied batch.
type IngestResponse struct {
	// Epoch is the new graph epoch the batch published.
	Epoch uint64 `json:"epoch"`
	// Inserted/Deleted/Relabeled count the batch's operations.
	Inserted  int `json:"inserted"`
	Deleted   int `json:"deleted"`
	Relabeled int `json:"relabeled"`
	// ChangedVertices is the size of the dirty seed set (endpoints of
	// inserted/deleted edges plus relabeled vertices) — the |C| of the
	// incremental re-matching locality bound.
	ChangedVertices int `json:"changed_vertices"`
	// Vertices and Edges describe the new epoch's graph.
	Vertices  int   `json:"vertices"`
	Edges     int   `json:"edges"`
	ElapsedMS int64 `json:"elapsed_ms"`
}

// cell extracts row[i] as a 32-bit-safe non-negative value.
func cell(what string, row []int64, i int) (uint32, error) {
	v := row[i]
	if v < 0 || v > math.MaxUint32 {
		return 0, fmt.Errorf("%s row value %d out of range", what, v)
	}
	return uint32(v), nil
}

// decodeDelta translates the wire rows into a graph.Delta, checking row
// shapes and value ranges; semantic validation against the live graph
// (presence, duplicates, self loops) is ApplyDelta's job.
func decodeDelta(req *IngestRequest) (*graph.Delta, error) {
	b := graph.NewDeltaBuilder()
	for _, row := range req.Insert {
		if len(row) != 2 && len(row) != 3 {
			return nil, fmt.Errorf("insert rows need 2 or 3 values, got %d", len(row))
		}
		u, err := cell("insert", row, 0)
		if err != nil {
			return nil, err
		}
		v, err := cell("insert", row, 1)
		if err != nil {
			return nil, err
		}
		if len(row) == 3 {
			l, err := cell("insert", row, 2)
			if err != nil {
				return nil, err
			}
			b.InsertEdgeLabeled(graph.VertexID(u), graph.VertexID(v), graph.Label(l))
		} else {
			b.InsertEdge(graph.VertexID(u), graph.VertexID(v))
		}
	}
	for _, row := range req.Delete {
		if len(row) != 2 {
			return nil, fmt.Errorf("delete rows need 2 values, got %d", len(row))
		}
		u, err := cell("delete", row, 0)
		if err != nil {
			return nil, err
		}
		v, err := cell("delete", row, 1)
		if err != nil {
			return nil, err
		}
		b.DeleteEdge(graph.VertexID(u), graph.VertexID(v))
	}
	for _, row := range req.Relabel {
		if len(row) != 2 {
			return nil, fmt.Errorf("relabel rows need 2 values, got %d", len(row))
		}
		v, err := cell("relabel", row, 0)
		if err != nil {
			return nil, err
		}
		l, err := cell("relabel", row, 1)
		if err != nil {
			return nil, err
		}
		b.RelabelVertex(graph.VertexID(v), graph.Label(l))
	}
	return b.Delta(), nil
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	q := s.begin("ingest")
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.IngestMaxBodyBytes)
	var req IngestRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.reject(w, r, q, http.StatusRequestEntityTooLarge, outcomeTooLarge, fmt.Sprintf("ingest body exceeds %d bytes", tooBig.Limit))
		} else {
			s.reject(w, r, q, http.StatusBadRequest, outcomeBadRequest, fmt.Sprintf("bad request: %v", err))
		}
		s.metrics.noteIngestRejected()
		return
	}
	d, err := decodeDelta(&req)
	if err != nil {
		s.reject(w, r, q, http.StatusBadRequest, outcomeBadRequest, fmt.Sprintf("bad batch: %v", err))
		s.metrics.noteIngestRejected()
		return
	}

	// The wire speaks external vertex ids; translate to the internal
	// (possibly degree-relabeled) space before applying. The permutation is
	// fixed for the server's lifetime — every epoch shares the same tables —
	// so translating against the current snapshot is race-free even while
	// another writer swaps epochs.
	d = graph.TranslateDeltaToInternal(s.snaps.Current(), d)

	// Apply serializes writers internally; validation failures publish
	// nothing (the epoch does not advance). With a WAL configured, the
	// batch is appended — and fsynced, per the sync policy — between
	// validation and publication (write-ahead): an acknowledged batch is
	// always recoverable, and a batch the log rejects is never applied or
	// acknowledged. The delta is logged in internal id space, which is
	// what recovery replays against (the checkpoint carries the
	// permutation, and the seed graph is relabeled identically on every
	// boot).
	var commitErr error
	var commit func(epoch uint64) error
	if s.cfg.WAL != nil {
		commit = func(epoch uint64) error {
			if err := s.cfg.WAL.Append(epoch, d); err != nil {
				commitErr = err
				return err
			}
			return nil
		}
	}
	epoch, changed, err := s.snaps.ApplyLogged(d, commit)
	if commitErr != nil {
		s.log.LogAttrs(r.Context(), slog.LevelError, "ingest batch not durable",
			slog.String("error", commitErr.Error()))
		s.reject(w, r, q, http.StatusInternalServerError, outcomeDurability, "durable append failed; batch not applied")
		s.metrics.noteIngestRejected()
		return
	}
	if err != nil {
		s.reject(w, r, q, http.StatusUnprocessableEntity, outcomeUnprocessable, err.Error())
		s.metrics.noteIngestRejected()
		return
	}
	// Recompute /stats before purging: a query racing the purge may still
	// cache an old-epoch body, but it is keyed by the old epoch and therefore
	// unreachable to post-ingest queries.
	ng := s.snaps.Current()
	s.stats.Store(s.computeStats(ng, epoch))
	s.purgeCaches()
	s.metrics.noteIngestApplied(len(d.Insert), len(d.Delete), len(d.Relabels))
	if s.cfg.WAL != nil {
		// Outside the publish critical path: a checkpoint failure costs
		// replay time on the next boot, never durability (the records it
		// would have superseded are still in the log).
		if _, err := s.cfg.WAL.MaybeCheckpoint(ng, epoch); err != nil {
			s.log.LogAttrs(r.Context(), slog.LevelWarn, "wal checkpoint failed",
				slog.String("error", err.Error()))
		}
	}

	resp := IngestResponse{
		Epoch:           epoch,
		Inserted:        len(d.Insert),
		Deleted:         len(d.Delete),
		Relabeled:       len(d.Relabels),
		ChangedVertices: len(changed),
		Vertices:        ng.NumVertices(),
		Edges:           ng.NumDirectedEdges() / 2,
		ElapsedMS:       time.Since(q.start).Milliseconds(),
	}
	s.finish(r, q, outcomeOK, http.StatusOK,
		slog.Uint64("epoch", epoch),
		slog.Int("inserted", resp.Inserted),
		slog.Int("deleted", resp.Deleted),
		slog.Int("relabeled", resp.Relabeled),
		slog.Int("changed_vertices", resp.ChangedVertices))
	writeJSON(w, resp)
}
