package constraint

import (
	"fmt"
	"strings"
	"testing"

	"approxmatch/internal/datagen"
	"approxmatch/internal/pattern"
	"approxmatch/internal/prototype"
)

// fmtWalkID is walkID's original fmt-and-map encoding, kept as the
// reference: shared NLCC store keys are built from walk IDs, so the encoding
// must not change by a byte.
func fmtWalkID(t *pattern.Template, k Kind, seq []int) string {
	canon := make(map[int]int, len(seq))
	var sb strings.Builder
	sb.WriteString(k.String())
	sb.WriteByte(':')
	for i, q := range seq {
		c, ok := canon[q]
		if !ok {
			c = len(canon)
			canon[q] = c
		}
		if i > 0 {
			el, _ := t.EdgeLabelBetween(seq[i-1], q)
			fmt.Fprintf(&sb, "-%d>", el)
		}
		fmt.Fprintf(&sb, "%d@%d", c, t.Label(q))
	}
	return sb.String()
}

// TestWalkIDEncodingPinned checks every walk of every prototype of the
// paper's served templates — WDC-1/2/3, RMAT-1 and RDT-1 at the edit
// distances the benchmark submits them with, RMAT-1 up to its last
// connected level — plus an edge-labeled, wildcard template against the
// reference encoding, byte for byte.
func TestWalkIDEncodingPinned(t *testing.T) {
	edgeLabeled, err := pattern.NewEdgeLabeled(
		[]pattern.Label{1, pattern.Wildcard, 3, 1},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}, {I: 2, J: 3}, {I: 0, J: 3}},
		[]pattern.Label{7, 0, 7, 2, 9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		t    *pattern.Template
		k    int
	}{
		{"WDC-1", datagen.WDC1(), 2},
		{"WDC-2", datagen.WDC2(), 2},
		{"WDC-3", datagen.WDC3(), 3},
		{"RMAT-1", datagen.RMAT1(datagen.RMATGraph(10)), 2},
		{"RDT-1", datagen.RDT1(), 1},
		{"edge-labeled", edgeLabeled, 2},
	}
	for _, c := range cases {
		set, err := prototype.Generate(c.t, c.k)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		walks := 0
		for pi, p := range set.Protos {
			for _, w := range generate(p.Template) {
				walks++
				if want := fmtWalkID(p.Template, w.Kind, w.Seq); w.ID != want {
					t.Errorf("%s prototype %d: walk %v ID %q, want %q", c.name, pi, w, w.ID, want)
				}
			}
		}
		if walks == 0 {
			t.Errorf("%s: no walks generated", c.name)
		}
	}
}
