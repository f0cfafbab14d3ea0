package core

import (
	"math/bits"

	"approxmatch/internal/constraint"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
)

// localProfile aliases the shared profile type; the distributed engine uses
// the same analysis (internal/constraint).
type localProfile = constraint.LocalProfile

func buildLocalProfile(t *pattern.Template) *localProfile {
	return constraint.BuildLocalProfile(t)
}

// vertexSatisfiesLocal checks the local constraints of template vertex q at
// graph vertex v: for every distinct neighbor label of q, v must have at
// least as many distinct active neighbors holding a candidate in that group
// as the group's multiplicity.
func vertexSatisfiesLocal(s *State, omega candidateSet, prof *localProfile, v graph.VertexID, q int) bool {
	for _, g := range prof.Groups(q) {
		found := 0
		s.ForEachActiveNeighbor(v, func(_ int, w graph.VertexID) {
			if found < g.Count && omega[w]&g.Mask != 0 {
				found++
			}
		})
		if found < g.Count {
			return false
		}
	}
	return true
}

// lcc runs local constraint checking (Alg. 4) to a fixpoint on state s with
// candidate set omega for prototype template t. It eliminates candidate
// entries, vertices and edges, and returns whether anything was eliminated.
// A non-nil pool switches to the superstep (Jacobi) schedule in lccPar;
// both reach the same fixpoint.
func lcc(s *State, omega candidateSet, prof *localProfile, pool *Pool, cc *CancelCheck, m *Metrics) bool {
	if pool != nil {
		return lccPar(s, omega, prof, pool, cc, m)
	}
	t := prof.Template()
	eliminatedAny := false
	for {
		m.LCCIterations++
		changed := false
		// Vertex phase: every active vertex "receives visitors" from its
		// active neighbors and re-validates each candidate q.
		s.ForEachActiveVertex(func(v graph.VertexID) {
			cc.Tick()
			m.LCCMessages += int64(s.ActiveDegree(v))
			for q := 0; q < t.NumVertices(); q++ {
				if !omega.has(v, q) {
					continue
				}
				if !vertexSatisfiesLocal(s, omega, prof, v, q) {
					omega.remove(v, q)
					changed = true
				}
			}
			if !omega.any(v) {
				s.dropVertex(v)
				changed = true
			}
		})
		// Edge phase: an active edge (v,u) survives only if some candidate
		// pair (q ∈ ω(v), q' ∈ ω(u)) is a template edge. The test is
		// symmetric and ω is fixed during the phase, so each endpoint
		// clears only the slot it owns; the scan also clears the slots
		// dropVertex left dangling, so lcc exits with the State invariant.
		s.ForEachActiveVertex(func(v graph.VertexID) {
			cc.Tick()
			ns := s.g.Neighbors(v)
			base := int(s.g.AdjOffset(v))
			for i, u := range ns {
				if !s.edges.Get(base + i) {
					continue
				}
				if !s.verts.Get(int(u)) {
					s.edges.Clear(base + i)
					continue
				}
				// Each examined active edge slot is one edge-phase message
				// (one "visitor" per directed slot), mirroring the vertex
				// phase's per-visitor accounting. A refuted edge is one
				// message, charged to the endpoint this in-place scan reaches
				// first: that visit takes the edge down, the later endpoint
				// only clears its own slot.
				supported := edgeSupported(omega, prof, v, u)
				if supported || v < u {
					m.LCCMessages++
				}
				if !supported {
					s.edges.Clear(base + i)
					changed = true
				}
			}
		})
		if changed {
			eliminatedAny = true
			continue
		}
		return eliminatedAny
	}
}

// edgeSupported reports whether edge (v,u) supports some template edge under
// the current candidates.
func edgeSupported(omega candidateSet, prof *localProfile, v, u graph.VertexID) bool {
	ov := omega[v]
	for ov != 0 {
		q := trailingZeros(ov)
		ov &= ov - 1
		if omega[u]&prof.NbrMask(q) != 0 {
			return true
		}
	}
	return false
}

func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }
