package core

import "approxmatch/internal/graph"

// The closure walk the kernels ran on before State.gatherOmega, kept as the
// reference the gather is differentially tested against (TestGatherMatchesWalk)
// and as the neighbour iterator of the older suites.

// ForEachActiveNeighbor calls fn(i, w) for every active neighbor w of u
// reachable over an active edge slot; i is the neighbor's position in u's
// adjacency.
func (s *State) ForEachActiveNeighbor(u graph.VertexID, fn func(i int, w graph.VertexID)) {
	ns := s.g.Neighbors(u)
	base := int(s.g.AdjOffset(u))
	s.edges.ForEachInRange(base, base+len(ns), func(slot int) {
		i := slot - base
		if w := ns[i]; s.verts.Get(int(w)) {
			fn(i, w)
		}
	})
}

// ActiveDegree returns the number of active incident edges of u with active
// far endpoints.
func (s *State) ActiveDegree(u graph.VertexID) int {
	d := 0
	s.ForEachActiveNeighbor(u, func(int, graph.VertexID) { d++ })
	return d
}

// vertexSatisfiesLocal checks the local constraints of template vertex q at
// graph vertex v with one walk of v's neighbours per label group.
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

// edgeSupported reports whether edge (v,u) supports some template edge under
// the current candidates, one candidate of ω(v) at a time.
func edgeSupported(omega candidateSet, prof *localProfile, v, u graph.VertexID) bool {
	for ov := omega[v]; ov != 0; ov &= ov - 1 {
		if omega[u]&prof.NbrMask(trailingZeros(ov)) != 0 {
			return true
		}
	}
	return false
}

// candidateViable checks the max-candidate-set requirement for (v, q) with a
// walk for the neighbour union and one more per multi-count mandatory group.
func candidateViable(s *State, omega candidateSet, p *candsetPrep, v graph.VertexID, q int) bool {
	if p.single {
		return true
	}
	var nbrUnion uint64
	s.ForEachActiveNeighbor(v, func(_ int, w graph.VertexID) { nbrUnion |= omega[w] })
	if nbrUnion&p.prof.AllNbr(q) == 0 {
		return false
	}
	for _, g := range p.prof.Mandatory(q) {
		found := 0
		s.ForEachActiveNeighbor(v, func(_ int, w graph.VertexID) {
			if omega[w]&g.Mask != 0 {
				found++
			}
		})
		if found < g.Count {
			return false
		}
	}
	return true
}
