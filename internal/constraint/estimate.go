package constraint

import (
	"sort"

	"approxmatch/internal/pattern"
)

// costEstimator predicts the expected token traffic of a constraint walk
// from background-graph statistics, in the spirit of the cost/likelihood
// estimation the paper's ordering heuristic builds on (Tripoul et al.,
// "There are Trillions of Little Forks in the Road"): a walk starting from
// a rare label with selective hops dies quickly and cheaply; one starting
// from a frequent label over unselective hops floods the graph.
type costEstimator struct {
	// NumVertices is |V| of the background graph.
	NumVertices int64
	// AvgDegree is the mean vertex degree.
	AvgDegree float64
	// Freq maps labels to vertex counts (include pattern.Wildcard mapped
	// to NumVertices).
	Freq LabelFreq
}

// newCostEstimator builds an estimator; the wildcard frequency is filled in
// automatically. freq is never written: concurrent searches may share it, so
// unless it already maps the wildcard to numVertices the estimator keeps a
// copy that does.
func newCostEstimator(numVertices int64, avgDegree float64, freq LabelFreq) *costEstimator {
	if n, ok := freq[pattern.Wildcard]; !ok || n != numVertices {
		own := make(LabelFreq, len(freq)+1)
		for l, c := range freq {
			own[l] = c
		}
		own[pattern.Wildcard] = numVertices
		freq = own
	}
	return &costEstimator{NumVertices: numVertices, AvgDegree: avgDegree, Freq: freq}
}

// labelProb is the probability a uniform vertex carries a label accepted by
// template label l.
func (ce *costEstimator) labelProb(l Label) float64 {
	if ce.NumVertices == 0 {
		return 0
	}
	return float64(ce.Freq[l]) / float64(ce.NumVertices)
}

// walkCost estimates the expected number of token forwards for walk w on
// template t: tokens start at every vertex whose label matches the
// initiator; each hop fans out to the average degree and survives with the
// probability that the hopped-to vertex carries the required label.
// Revisit hops (already-assigned template vertices) route to one vertex
// instead of fanning out.
func (ce *costEstimator) walkCost(t *pattern.Template, w *Walk) float64 {
	if len(w.Seq) == 0 {
		return 0
	}
	survivors := float64(ce.Freq[t.Label(w.Seq[0])])
	if survivors == 0 {
		survivors = 1
	}
	total := 0.0
	seen := uint64(1) << uint(w.Seq[0]) // template vertices (< pattern.MaxVertices)
	for r := 1; r < len(w.Seq); r++ {
		tq := w.Seq[r]
		if seen&(1<<uint(tq)) != 0 {
			// Revisit: one routed message per surviving token; survival is
			// the chance the specific required edge exists (~AvgDegree/n).
			total += survivors
			p := ce.AvgDegree / float64(max(ce.NumVertices, 1))
			survivors *= p
			continue
		}
		seen |= 1 << uint(tq)
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

// orderByCost sorts walks by predicted token traffic, cheapest first. The
// sort is stable so equal-cost walks keep generation order. Each walk's cost
// is computed once, before sorting.
func orderByCost(t *pattern.Template, walks []*Walk, ce *costEstimator) {
	type costed struct {
		w    *Walk
		cost float64
	}
	byCost := make([]costed, len(walks))
	for i, w := range walks {
		byCost[i] = costed{w, ce.walkCost(t, w)}
	}
	sort.SliceStable(byCost, func(i, j int) bool {
		if byCost[i].cost != byCost[j].cost {
			return byCost[i].cost < byCost[j].cost
		}
		return byCost[i].w.Kind < byCost[j].w.Kind
	})
	for i, c := range byCost {
		walks[i] = c.w
	}
}
