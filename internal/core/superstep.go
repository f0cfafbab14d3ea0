package core

import "approxmatch/internal/graph"

// This file implements the superstep (Jacobi-style) schedule of the
// maximum-candidate-set viability fixpoint. Each fixpoint round is a
// superstep with BSP semantics: it scans every active vertex against the
// round-start State/candidateSet snapshot and records the ω eliminations it
// finds into a delta list, which the round end applies before the next round
// begins. Nothing a round reads — ω and the vertex bits — changes during the
// round, so every per-vertex verdict, and hence every CandidateMessages
// count, depends only on the round-start snapshot.
//
// Eliminations are monotone (bits only ever go from set to clear), so the
// rounds reach the same greatest fixpoint as any other schedule. The
// per-prototype kernels (lcc, nlcc) stay Gauss-Seidel; a run takes its
// parallelism from the concurrent prototype searches of a level.

// omegaDelta records candidate-mask bits to remove from ω(v) at the round
// end.
type omegaDelta struct {
	v    graph.VertexID
	mask uint64
}

// candidateFixpoint runs the M* viability fixpoint on the seeded s and ω:
// Jacobi rounds until no candidate is eliminated. It reports whether it
// dropped any vertex.
//
// One forked probe ticks every vertex visit of every round and is released
// before cc is polled at each round end, so the charge reaches the shared
// tracker before the poll and a budget aborts the run between rounds.
func candidateFixpoint(s *State, omega candidateSet, p *candsetPrep, cc *CancelCheck, m *Metrics) (dropped bool) {
	probe := cc.Fork()
	var (
		delta []omegaDelta
		nbr   []uint64
	)
	for {
		delta = delta[:0]
		var msgs int64
		s.ForEachActiveVertex(func(v graph.VertexID) {
			probe.Tick()
			// ω is frozen during the round: the gather reads the round-start
			// values (a vertex never borders itself).
			nbr = s.gatherOmega(omega, v, nbr)
			msgs += int64(len(nbr))
			if rm := p.unviable(omega[v], nbr); rm != 0 {
				delta = append(delta, omegaDelta{v, rm})
			}
		})
		probe.Release()
		cc.Check()
		m.CandidateMessages += msgs
		for _, od := range delta {
			if omega[od.v] &^= od.mask; omega[od.v] == 0 {
				s.dropVertex(od.v)
				dropped = true
			}
		}
		if len(delta) == 0 {
			return dropped
		}
	}
}
