package graph

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadBinary exercises the binary CSR loader with hostile bytes: any
// input must either error or produce a structurally valid graph — never
// panic, and never allocate beyond the (tiny, test-sized) loader limits.
func FuzzReadBinary(f *testing.F) {
	// Seed with valid files of both magics so the fuzzer reaches the
	// section decoding and CSR validation, not just the header checks.
	b := NewBuilder(4)
	b.SetLabel(0, 5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	var plain bytes.Buffer
	if err := WriteBinary(&plain, b.Build()); err != nil {
		f.Fatal(err)
	}
	f.Add(plain.Bytes())
	bl := NewBuilder(3)
	bl.AddEdgeLabeled(0, 1, 7)
	bl.AddEdgeLabeled(1, 2, 8)
	var labeled bytes.Buffer
	if err := WriteBinary(&labeled, bl.Build()); err != nil {
		f.Fatal(err)
	}
	f.Add(labeled.Bytes())
	f.Add([]byte{})

	lim := LoaderLimits{MaxVertices: 1 << 12, MaxDirectedEdges: 1 << 13}
	f.Fuzz(func(t *testing.T, in []byte) {
		g, err := ReadBinaryLimits(bytes.NewReader(in), lim)
		if err != nil {
			return
		}
		// The loader's structural validation must be strong enough that
		// every accessor is safe; Validate walks them all.
		for v := 0; v < g.NumVertices(); v++ {
			g.Neighbors(VertexID(v))
			g.Degree(VertexID(v))
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatalf("rewrite failed on loaded graph: %v", err)
		}
	})
}

// FuzzReadEdgeList exercises the graph text parser: any input must either
// error or produce a structurally valid graph that round-trips. Like
// FuzzReadBinary it loads under test-sized limits: under the default ones a
// ten-byte line such as "90000001 1" is a valid graph of 90M vertices, and
// building it takes gigabytes.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("# vertices 3\nv 0 5\n0 1\n1 2\n")
	f.Add("0 1 7\n1 2 8\n")
	f.Add("v 0 1\n")
	for _, c := range edgeListParity {
		f.Add(c.in)
	}
	lim := LoaderLimits{MaxVertices: 1 << 12}
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadEdgeListLimits(strings.NewReader(in), lim)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("parsed graph invalid: %v\ninput: %q", err, in)
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadEdgeListLimits(&buf, lim)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if !sameGraph(g, g2) {
			t.Fatal("round trip changed the graph")
		}
	})
}

// FuzzApplyDelta feeds hostile mutation batches to ApplyDelta: any batch
// must either be rejected with an error or produce the next-epoch graph a
// fresh Build makes — never panic, and never corrupt the input snapshot.
// The byte stream decodes to ops of 5 bytes: opcode, two 2-byte operands.
func FuzzApplyDelta(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0, 5, 1, 0, 0, 0, 1, 2, 0, 4, 0, 9})
	f.Add([]byte{0, 0, 2, 0, 2})       // self loop
	f.Add([]byte{1, 0, 1, 0, 4})       // delete absent
	f.Add([]byte{3, 0, 3, 0, 5, 0xff}) // labeled insert
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, in []byte) {
		// A 5-cycle with a chord on vertices 0-3 and 5; vertices 4 and 6
		// are isolated, so rows before, between and after them get patched.
		base := NewBuilder(7)
		for v := 0; v < 7; v++ {
			base.SetLabel(VertexID(v), Label(v%3))
		}
		base.AddEdge(0, 1)
		base.AddEdge(1, 2)
		base.AddEdge(2, 3)
		base.AddEdge(3, 5)
		base.AddEdge(5, 0)
		base.AddEdge(0, 2)
		g := base.Build()
		before := struct {
			offsets []int64
			adj     []VertexID
			labels  []Label
		}{
			append([]int64(nil), g.offsets...),
			append([]VertexID(nil), g.adj...),
			append([]Label(nil), g.labels...),
		}

		d := &Delta{}
		for i := 0; i+4 < len(in); i += 5 {
			a := VertexID(in[i+1]) | VertexID(in[i+2])<<8
			b := VertexID(in[i+3]) | VertexID(in[i+4])<<8
			switch in[i] % 4 {
			case 0:
				d.Insert = append(d.Insert, Edge{a, b})
			case 1:
				d.Delete = append(d.Delete, Edge{a, b})
			case 2:
				d.Relabels = append(d.Relabels, Relabel{V: a, L: Label(b)})
			case 3:
				d.Insert = append(d.Insert, Edge{a, b})
				d.InsertLabels = append(d.InsertLabels, Label(in[i]))
			}
		}

		ng, changed, err := ApplyDelta(g, d)
		if err == nil && !d.Empty() {
			if verr := ng.Validate(); verr != nil {
				t.Fatalf("accepted delta produced invalid graph: %v", verr)
			}
			if len(changed) == 0 {
				t.Fatal("accepted non-empty delta reported no changed vertices")
			}
			checkDeltaAgainstBuild(t, g, d)
		}
		// The input snapshot must be bit-identical either way.
		if !reflect.DeepEqual(g.offsets, before.offsets) ||
			!reflect.DeepEqual(g.adj, before.adj) ||
			!reflect.DeepEqual(g.labels, before.labels) {
			t.Fatal("ApplyDelta corrupted the input snapshot")
		}
	})
}
