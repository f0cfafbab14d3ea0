package constraint

import (
	"sort"

	"approxmatch/internal/pattern"
)

// CostEstimator predicts the expected token traffic of a constraint walk
// from background-graph statistics, in the spirit of the cost/likelihood
// estimation the paper's ordering heuristic builds on (Tripoul et al.,
// "There are Trillions of Little Forks in the Road"): a walk starting from
// a rare label with selective hops dies quickly and cheaply; one starting
// from a frequent label over unselective hops floods the graph.
type CostEstimator struct {
	// NumVertices is |V| of the background graph.
	NumVertices int64
	// AvgDegree is the mean vertex degree.
	AvgDegree float64
	// Freq maps labels to vertex counts (include pattern.Wildcard mapped
	// to NumVertices).
	Freq LabelFreq
}

// NewCostEstimator builds an estimator; the wildcard frequency is filled in
// automatically. freq is never written: concurrent searches may share it, so
// unless it already maps the wildcard to numVertices the estimator keeps a
// copy that does.
func NewCostEstimator(numVertices int64, avgDegree float64, freq LabelFreq) *CostEstimator {
	if n, ok := freq[pattern.Wildcard]; !ok || n != numVertices {
		own := make(LabelFreq, len(freq)+1)
		for l, c := range freq {
			own[l] = c
		}
		own[pattern.Wildcard] = numVertices
		freq = own
	}
	return &CostEstimator{NumVertices: numVertices, AvgDegree: avgDegree, Freq: freq}
}

// labelProb is the probability a uniform vertex carries a label accepted by
// template label l.
func (ce *CostEstimator) labelProb(l Label) float64 {
	if ce.NumVertices == 0 {
		return 0
	}
	return float64(ce.Freq[l]) / float64(ce.NumVertices)
}

// WalkCost estimates the expected number of token forwards for walk w on
// template t: tokens start at every vertex whose label matches the
// initiator; each hop fans out to the average degree and survives with the
// probability that the hopped-to vertex carries the required label.
// Revisit hops (already-assigned template vertices) route to one vertex
// instead of fanning out.
func (ce *CostEstimator) WalkCost(t *pattern.Template, w *Walk) float64 {
	if len(w.Seq) == 0 {
		return 0
	}
	survivors := float64(ce.Freq[t.Label(w.Seq[0])])
	if survivors == 0 {
		survivors = 1
	}
	total := 0.0
	seen := map[int]bool{w.Seq[0]: true}
	for r := 1; r < len(w.Seq); r++ {
		tq := w.Seq[r]
		if seen[tq] {
			// Revisit: one routed message per surviving token; survival is
			// the chance the specific required edge exists (~AvgDegree/n).
			total += survivors
			p := ce.AvgDegree / float64(maxI64(ce.NumVertices, 1))
			survivors *= p
			continue
		}
		seen[tq] = true
		// Fan-out: each survivor broadcasts to its neighbors...
		msgs := survivors * ce.AvgDegree
		total += msgs
		survivors = msgs * ce.labelProb(t.Label(tq))
		if survivors < 1e-12 {
			survivors = 1e-12
		}
	}
	return total
}

// OrderWalksEstimated sorts walks by predicted token traffic, cheapest
// first, so early cheap walks prune the graph before expensive ones run.
// The sort is stable so equal-cost walks keep generation order.
func OrderWalksEstimated(t *pattern.Template, walks []*Walk, ce *CostEstimator) {
	if ce == nil {
		OrderWalks(t, walks, nil)
		return
	}
	sort.SliceStable(walks, func(i, j int) bool {
		ci, cj := ce.WalkCost(t, walks[i]), ce.WalkCost(t, walks[j])
		if ci != cj {
			return ci < cj
		}
		return walks[i].Kind < walks[j].Kind
	})
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
