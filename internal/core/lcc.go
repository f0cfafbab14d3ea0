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

// satisfiesLocal checks the local constraints of template vertex q against
// the gathered candidate masks of a vertex's active neighbours (see
// State.gatherOmega): for every distinct neighbor label of q, at least as
// many neighbours must hold a candidate in that group as the group's
// multiplicity.
func satisfiesLocal(prof *localProfile, q int, nbr []uint64) bool {
	for _, g := range prof.Groups(q) {
		if !holdsAtLeast(nbr, g.Mask, g.Count) {
			return false
		}
	}
	return true
}

// unsatisfiedLocal returns the candidates of ov that fail their local
// constraints against the gathered neighbour masks.
func unsatisfiedLocal(prof *localProfile, ov uint64, nbr []uint64) (rm uint64) {
	for rest := ov; rest != 0; rest &= rest - 1 {
		if q := trailingZeros(rest); !satisfiesLocal(prof, q, nbr) {
			rm |= 1 << uint(q)
		}
	}
	return rm
}

// supportMask returns the candidates an edge's far endpoint must intersect
// for the edge to support some template edge: the union of the template
// neighbourhoods of ov's candidates. ω is fixed during an edge phase, so one
// mask per vertex answers every slot with a single AND.
func supportMask(prof *localProfile, ov uint64) (need uint64) {
	for ; ov != 0; ov &= ov - 1 {
		need |= prof.NbrMask(trailingZeros(ov))
	}
	return need
}

// lcc runs local constraint checking (Alg. 4) to a fixpoint on state s with
// candidate set omega for prototype template t. It eliminates candidate
// entries, vertices and edges, and returns whether anything was eliminated.
// The loops are Gauss-Seidel: a vertex sees the eliminations of vertices
// scanned before it in the same round. Elimination is monotone, so any
// schedule reaches the same greatest fixpoint, and this one takes fewer
// rounds than Jacobi supersteps would. lcc runs one prototype; the first
// fixpoint of a level's prototypes usually runs as lanes of lccBlock, which
// ends every lane exactly where lcc would, counters included. lcc serves the
// re-checks after NLCC eliminations, levels too small to block, childless
// prototypes and the single-template entry points.
func lcc(s *State, omega candidateSet, prof *localProfile, cc *CancelCheck, m *Metrics) bool {
	var nbr []uint64 // gather scratch
	eliminatedAny := false
	for {
		m.LCCIterations++
		changed := false
		// Vertex phase: every active vertex "receives visitors" from its
		// active neighbors — one gather, one message per visitor — and
		// re-validates each candidate q against what they delivered.
		s.ForEachActiveVertex(func(v graph.VertexID) {
			cc.Tick()
			nbr = s.gatherOmega(omega, v, nbr)
			m.LCCMessages += int64(len(nbr))
			if rm := unsatisfiedLocal(prof, omega[v], nbr); rm != 0 {
				omega[v] &^= rm
				changed = true
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
			need := supportMask(prof, omega[v])
			ns, base, ws := s.slotScan(v)
			for ws.Next() {
				for w := ws.Word; w != 0; w &= w - 1 {
					slot := ws.Base + trailingZeros(w)
					u := ns[slot-base]
					if !s.verts.Get(int(u)) {
						s.edges.Clear(slot)
						continue
					}
					// Each examined active edge slot is one edge-phase message
					// (one "visitor" per directed slot), mirroring the vertex
					// phase's per-visitor accounting. A refuted edge is one
					// message, charged to the endpoint this in-place scan reaches
					// first: that visit takes the edge down, the later endpoint
					// only clears its own slot.
					supported := omega[u]&need != 0
					if supported || v < u {
						m.LCCMessages++
					}
					if !supported {
						s.edges.Clear(slot)
						changed = true
					}
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

func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }
