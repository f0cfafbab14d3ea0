package eval

import (
	"time"

	"approxmatch/internal/dist"
)

// LocalityRow is one node grouping of Fig. 12.
type LocalityRow struct {
	Nodes, RanksPerNode int
	// Modeled is the cost model's time in arbitrary units; Measured is a
	// latency-injected run's wall time.
	Modeled  float64
	Measured time.Duration
}

// Locality is Fig. 12's sweep.
type Locality struct {
	Rows []LocalityRow
	// Best indexes the row with the least modeled time.
	Best int
	// Messages and Remote count the fixed partitioning's messages.
	Messages, Remote int64
}

// Fig12 maps a fixed partitioning (48 ranks, WDC-2) onto varying node
// counts. The per-rank work and message locality are measured; the modeled
// time applies the cost model to them (oversubscribed cores at one
// extreme, all-network traffic at the other). The measured column re-runs
// with per-message latency injected: receiving ranks sleep per remote
// message, concurrently, which exposes the network side of the curve only,
// since a host cannot oversubscribe cores it does not have.
func Fig12(quick bool) (*Locality, error) {
	g, tpl, k := WDC2.At(quick)
	const ranks = 48
	e := dist.NewEngine(g, dist.Config{Ranks: ranks, RanksPerNode: 8, DelegateThreshold: 512})
	if _, err := dist.Run(e, tpl, dist.DefaultOptions(k)); err != nil {
		return nil, err
	}
	cm := dist.DefaultCostModel()
	cm.CoresPerNode = 8 // a scaled-down 36-core node
	interRank, interNode := 2*time.Microsecond, 20*time.Microsecond
	if quick {
		interRank, interNode = 4*time.Microsecond, 40*time.Microsecond
	}

	out := &Locality{Best: -1, Messages: e.Stats.Total(), Remote: e.Stats.Remote()}
	for i, rpn := range []int{ranks, ranks / 2, ranks / 4, ranks / 8, 2, 1} {
		row := LocalityRow{Nodes: (ranks + rpn - 1) / rpn, RanksPerNode: rpn, Modeled: dist.ModeledTime(e, cm, rpn)}
		if out.Best == -1 || row.Modeled < out.Rows[out.Best].Modeled {
			out.Best = i
		}
		em := dist.NewEngine(g, dist.Config{
			Ranks: ranks, RanksPerNode: rpn, DelegateThreshold: 512,
			InterRankDelay: interRank, InterNodeDelay: interNode,
		})
		start := time.Now()
		if _, err := dist.Run(em, tpl, dist.DefaultOptions(k)); err != nil {
			return nil, err
		}
		row.Measured = time.Since(start)
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}
