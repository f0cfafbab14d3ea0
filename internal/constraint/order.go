package constraint

import (
	"sort"

	"approxmatch/internal/pattern"
)

// LabelFreq maps a label to its vertex count in the background graph. It
// drives the cost heuristics of §5.4 ("Constraint and Prototype Ordering").
type LabelFreq map[Label]int64

// Plan returns the pruning walks of prototype t in the order an engine runs
// them. With a nil frequency map (frequency ordering off) walks keep
// generation order within each kind, CC before PC before TDS. Otherwise each
// walk is oriented to start from its rarest admissible initiator and the
// walks are sorted by predicted token traffic on a background graph of
// numVertices vertices and mean degree avgDegree, cheapest first, so cheap
// walks prune before expensive ones run. Orientation is a function of the
// walk's ID and freq alone, so every plan runs the walk its ID names.
func Plan(t *pattern.Template, freq LabelFreq, numVertices int64, avgDegree float64) []*Walk {
	walks := generate(t)
	if freq == nil {
		sort.SliceStable(walks, func(i, j int) bool { return walks[i].Kind < walks[j].Kind })
		return walks
	}
	for i, w := range walks {
		walks[i] = orientWalk(t, w, freq)
	}
	orderByCost(t, walks, newCostEstimator(numVertices, avgDegree, freq))
	return walks
}

// orientWalk rewrites a walk so that it starts from its cheapest admissible
// initiator: CC walks rotate so the first minimum-frequency label leads; PC
// walks reverse when the far endpoint is rarer. TDS walks stay as generated.
// The walk ID is preserved — identity is structural, not directional.
func orientWalk(t *pattern.Template, w *Walk, freq LabelFreq) *Walk {
	switch w.Kind {
	case CC:
		cyc := w.Seq[:len(w.Seq)-1]
		best := 0
		for i, q := range cyc {
			if freq[t.Label(q)] < freq[t.Label(cyc[best])] {
				best = i
			}
		}
		if best == 0 {
			return w
		}
		seq := make([]int, 0, len(w.Seq))
		for i := 0; i < len(cyc); i++ {
			seq = append(seq, cyc[(best+i)%len(cyc)])
		}
		seq = append(seq, seq[0])
		return &Walk{Kind: CC, Seq: seq, ID: w.ID}
	case PC:
		if freq[t.Label(w.Seq[len(w.Seq)-1])] < freq[t.Label(w.Seq[0])] {
			seq := make([]int, len(w.Seq))
			for i, q := range w.Seq {
				seq[len(seq)-1-i] = q
			}
			return &Walk{Kind: PC, Seq: seq, ID: w.ID}
		}
	}
	return w
}
