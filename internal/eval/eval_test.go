package eval

import "testing"

// The shape tests assert the paper's deterministic claims on the quick-size
// rows: the direction of each effect and its rough factor, never exact
// values. Each asserts only counters the simulated ranks produce whatever
// the schedule, so no outcome depends on GOMAXPROCS.

// Fig. 9(a): reshuffling the active vertices after candidate-set pruning
// evens out per-rank work. Quick rows: 2.43→1.11, 2.72→1.05, 2.76→1.04.
func TestFig9aRebalanceLowersImbalance(t *testing.T) {
	rows, err := Fig9a(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want WDC-1/2/3", len(rows))
	}
	for _, r := range rows {
		if gain := r.ImbalanceNLB / r.ImbalanceLB; gain < 1.5 || r.ImbalanceLB > 1.5 {
			t.Errorf("%s: imbalance %.2f unbalanced, %.2f balanced; want at least a 1.5x drop, to at most 1.5",
				r.Query, r.ImbalanceNLB, r.ImbalanceLB)
		}
	}
}

// Fig. 9(b) top: ordering non-local constraints by label frequency sends
// fewer NLCC tokens. Quick rows: WDC-1 2,861→1,991, WDC-2 15,376→13,669.
// (WDC-3, which the figure leaves out, rises.)
func TestConstraintOrderingSendsFewerTokens(t *testing.T) {
	rows, err := ConstraintOrdering(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want WDC-1/2", len(rows))
	}
	for _, r := range rows {
		if r.FrequencyOrder <= 0 || float64(r.TemplateOrder) < 1.05*float64(r.FrequencyOrder) {
			t.Errorf("%s: %d NLCC tokens in template order, %d in frequency order; want ≥ 5%% fewer",
				r.Query, r.TemplateOrder, r.FrequencyOrder)
		}
	}
}

// §5.7: most of a distributed run's messages cross ranks (the paper: ~89%;
// quick: 88.5%), and HGT sends fewer messages than the naïve search
// (quick: 738,018 against 978,867).
func TestMessageAnalysisShape(t *testing.T) {
	m, err := MessageAnalysis(true)
	if err != nil {
		t.Fatal(err)
	}
	if frac := float64(m.Remote) / float64(m.Total); frac <= 0.8 {
		t.Errorf("remote fraction %.3f (%d of %d), want > 0.8", frac, m.Remote, m.Total)
	}
	if m.HGT >= m.Naive {
		t.Errorf("HGT sent %d messages, naïve %d; want fewer", m.HGT, m.Naive)
	}
}
