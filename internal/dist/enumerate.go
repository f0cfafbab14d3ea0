package dist

import (
	"sync/atomic"

	"approxmatch/internal/core"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
)

// Distributed match enumeration (§4, "Match Enumeration and Counting"):
// enumeration tokens carry a partial assignment of template vertices in a
// connected matching order; each hop extends the assignment by one vertex,
// validated receiver-side, and completed tokens are counted at the rank
// that finishes them. This is the token-passing analogue of the sequential
// enumerator, run over a solution-subgraph state.

// enumToken carries the assignment for order[0:len(assigned)] and is
// addressed to the vertex proposed for order[len(assigned)].
type enumToken struct {
	assigned []graph.VertexID
}

// expandReq asks the target (an already-assigned vertex) to broadcast the
// token to its active neighbors — candidates for the next position.
type expandReq struct {
	assigned []graph.VertexID
	// anchor is the index within the matching order whose assigned vertex
	// is the broadcast source (the target of this message).
	anchor int
}

// CountMatchesDist counts exact matches of t within the given state by
// distributed token passing. The state must already be the exact solution
// subgraph (or any state: the count is of matches present in the state).
// It returns the total match count and leaves the message traffic in the
// engine's "enumerate" phase counters.
func CountMatchesDist(e *Engine, s *core.State, t *pattern.Template) int64 {
	ds := fromCoreState(e, s)
	ds.initOmega(t)
	order, anchors := matchOrderWithAnchors(t)
	g := e.Graph()
	var count atomic.Int64

	validate := func(target graph.VertexID, assigned []graph.VertexID) bool {
		idx := len(assigned)
		q := order[idx]
		if !ds.active[target] || ds.omega[target]&(1<<uint(q)) == 0 {
			return false
		}
		for _, gv := range assigned {
			if gv == target {
				return false // injectivity
			}
		}
		// Template edges from q to earlier order entries must be realized
		// by active, label-acceptable graph edges.
		for pi := 0; pi < idx; pi++ {
			r := order[pi]
			if !t.HasEdge(q, r) {
				continue
			}
			i := g.EdgeIndex(target, assigned[pi])
			if i < 0 || !ds.edgeOn[int(g.AdjOffset(target))+i] {
				return false
			}
			if el, ok := t.EdgeLabelBetween(q, r); ok && el != pattern.Wildcard {
				if g.EdgeLabelAt(target, i) != el {
					return false
				}
			}
		}
		return true
	}

	e.Traverse("enumerate",
		func(seed func(graph.VertexID, any)) {
			q0 := order[0]
			for v := range ds.active {
				if ds.active[v] && ds.omega[v]&(1<<uint(q0)) != 0 {
					seed(graph.VertexID(v), enumToken{})
				}
			}
		},
		func(ctx *Ctx, target graph.VertexID, data any) {
			switch d := data.(type) {
			case enumToken:
				if !validate(target, d.assigned) {
					return
				}
				next := append(append([]graph.VertexID(nil), d.assigned...), target)
				if len(next) == len(order) {
					count.Add(1)
					return
				}
				// Route to the anchor vertex for the next position, which
				// broadcasts to its neighbors.
				anchor := anchors[len(next)]
				ctx.Send(next[anchor], expandReq{assigned: next, anchor: anchor})
			case expandReq:
				base := int(g.AdjOffset(target))
				ctx.SendToNeighbors(target,
					func(i int, u graph.VertexID) bool { return ds.edgeOn[base+i] },
					func(i int, u graph.VertexID) any { return enumToken{assigned: d.assigned} })
			}
		})
	return count.Load()
}

// matchOrderWithAnchors returns a connected matching order plus, for each
// position > 0, the index of an earlier position whose template vertex is
// adjacent — the broadcast anchor for candidates.
func matchOrderWithAnchors(t *pattern.Template) (order []int, anchors []int) {
	n := t.NumVertices()
	inOrder := make([]bool, n)
	start := 0
	for q := 1; q < n; q++ {
		if t.Degree(q) > t.Degree(start) {
			start = q
		}
	}
	order = append(order, start)
	anchors = append(anchors, -1)
	inOrder[start] = true
	for len(order) < n {
		bestQ, bestScore, bestAnchor := -1, -1, -1
		for q := 0; q < n; q++ {
			if inOrder[q] {
				continue
			}
			score, anchor := 0, -1
			for pi, r := range order {
				if t.HasEdge(q, r) {
					score++
					if anchor == -1 {
						anchor = pi
					}
				}
			}
			if score > bestScore {
				bestQ, bestScore, bestAnchor = q, score, anchor
			}
		}
		order = append(order, bestQ)
		anchors = append(anchors, bestAnchor)
		inOrder[bestQ] = true
	}
	return order, anchors
}
