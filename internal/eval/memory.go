package eval

import (
	"approxmatch/internal/core"
	"approxmatch/internal/naive"
)

// BytesPerMessage is the size Fig. 11(b) charges each message: dynamic
// state is proxied by message volume, since the paper's message queues
// dominate it.
const BytesPerMessage = 32

// Memory is Fig. 11's accounting on WDC-2, in bytes.
type Memory struct {
	// (a) HGT's footprint: topology (CSR offsets, adjacency, labels),
	// per-vertex match vectors ρ, candidate masks ω (8 B per vertex), edge
	// state ε (1 bit per directed edge) and the per-prototype solution
	// subgraphs.
	Topology, Rho, Omega, EdgeState, Solutions int64
	// (b) Peak state, topology aside: the static state is ω + ε + ρ for
	// every engine, the dynamic state the naïve search's messages, HGT's
	// candidate-set messages (HGT-C) and its prototype-search messages
	// (HGT-P), at BytesPerMessage each.
	Static, NaiveDynamic, HGTCandidate, HGTSearch int64
}

// Fig11 accounts memory: the footprint of graph topology against the
// algorithm's per-vertex and per-edge state, and naïve against HGT peak
// state.
func Fig11(quick bool) (*Memory, error) {
	g, tpl, k := WDC2.At(quick)
	res, err := core.Run(g, tpl, core.DefaultConfig(k))
	if err != nil {
		return nil, err
	}
	nres, err := naive.Run(g, tpl, k, false)
	if err != nil {
		return nil, err
	}
	m := &Memory{
		Topology:  g.TopologyBytes(),
		Rho:       res.Rho.Bytes(),
		Omega:     int64(g.NumVertices()) * 8,
		EdgeState: int64(g.NumDirectedEdges()) / 8,
	}
	for _, sol := range res.Solutions {
		m.Solutions += sol.Verts.Bytes() + sol.Edges.Bytes()
	}
	m.Static = m.Omega + m.EdgeState + m.Rho
	m.NaiveDynamic = nres.Metrics.TotalMessages() * BytesPerMessage
	m.HGTCandidate = res.Metrics.CandidateMessages * BytesPerMessage
	m.HGTSearch = (res.Metrics.TotalMessages() - res.Metrics.CandidateMessages) * BytesPerMessage
	return m, nil
}

// State sums (a)'s algorithm state: everything but the topology.
func (m *Memory) State() int64 { return m.Rho + m.Omega + m.EdgeState + m.Solutions }
