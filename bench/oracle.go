package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"regexp"
	"sort"

	"approxmatch/internal/core"
	"approxmatch/internal/graph"
	"approxmatch/internal/server"
)

// protoKey is what a /match response says about one prototype, minus its
// index: a relabeled template enumerates the same prototype classes in
// another order, so responses are compared as sorted multisets.
type protoKey struct {
	dist, vertices int
	matches        int64
}

// expectation is the sequential reference's answer for one pool entry on
// one graph epoch.
type expectation struct {
	protos []protoKey // sorted
	labels int64
}

func sortProtos(ps []protoKey) {
	sort.Slice(ps, func(i, j int) bool {
		a, b := ps[i], ps[j]
		if a.dist != b.dist {
			return a.dist < b.dist
		}
		if a.vertices != b.vertices {
			return a.vertices < b.vertices
		}
		return a.matches < b.matches
	})
}

// reference runs the sequential pipeline (core.RunContext, Workers=0) for
// every pool entry on g.
func reference(g *graph.Graph, pool []query) ([]expectation, error) {
	out := make([]expectation, len(pool))
	for qi, q := range pool {
		cfg := core.DefaultConfig(q.k)
		cfg.CountMatches = true
		res, err := core.RunContext(context.Background(), g, q.t, cfg)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", q.name, err)
		}
		e := expectation{labels: res.LabelsGenerated()}
		for pi, p := range res.Set.Protos {
			sol := res.Solutions[pi]
			e.protos = append(e.protos, protoKey{p.Dist, sol.Verts.Count(), sol.MatchCount})
		}
		sortProtos(e.protos)
		out[qi] = e
	}
	return out, nil
}

// check compares a /match body with the expectation. With exact false only
// what no graph epoch can change is compared — complete, every prototype
// exact, the prototype count and their distances — which is all that can be
// said about a read racing the ingest writer.
func (e *expectation) check(body []byte, exact bool) error {
	var resp server.MatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("undecodable body: %w", err)
	}
	if resp.Partial {
		return fmt.Errorf("partial result")
	}
	if len(resp.Prototypes) != len(e.protos) {
		return fmt.Errorf("%d prototypes, want %d", len(resp.Prototypes), len(e.protos))
	}
	got := make([]protoKey, len(resp.Prototypes))
	for i, p := range resp.Prototypes {
		if !p.Exact || p.MatchCount == nil {
			return fmt.Errorf("prototype %d not exact or uncounted", p.Index)
		}
		got[i] = protoKey{p.Dist, p.Vertices, *p.MatchCount}
	}
	sortProtos(got)
	for i := range got {
		if got[i].dist != e.protos[i].dist {
			return fmt.Errorf("prototype distances differ from the reference")
		}
		if exact && got[i] != e.protos[i] {
			return fmt.Errorf("prototype (dist %d): %d vertices / %d matches, want %d / %d",
				got[i].dist, got[i].vertices, got[i].matches, e.protos[i].vertices, e.protos[i].matches)
		}
	}
	if exact && resp.Labels != e.labels {
		return fmt.Errorf("%d labels, want %d", resp.Labels, e.labels)
	}
	return nil
}

var elapsedField = regexp.MustCompile(`"elapsed_ms":\d+`)

// sameModuloElapsed reports whether two response bodies differ at most in
// their elapsed_ms field.
func sameModuloElapsed(a, b []byte) bool {
	return bytes.Equal(elapsedField.ReplaceAll(a, nil), elapsedField.ReplaceAll(b, nil))
}
