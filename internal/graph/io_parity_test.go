package graph

import (
	"bytes"
	"strings"
	"testing"
)

// edgeListParity pins what ReadEdgeList makes of awkward input: each entry
// is an edge-list file and either the graph it loads (as WriteEdgeList
// prints it) or "error: " and the loader's error text. The expectations were
// recorded from the strings.Fields-based loader the in-place tokenizer
// replaced, so separators, ids at and past the uint32 edge, signs, Unicode
// spaces and malformed lines all load, or fail, exactly as before.
var edgeListParity = []struct{ in, want string }{
	{"0 1\r\n1 2\r\n", "# vertices 3\n0 1\n1 2\n"},
	{"v 0 5\r\n0 1\r\n", "# vertices 2\nv 0 5\n0 1\n"},
	{"0\t1\n1\t\t2\t7\n", "# vertices 3\n0 1 0\n1 2 7\n"},
	{"   0 1\n1 2   \n  2    3  \n", "# vertices 4\n0 1\n1 2\n2 3\n"},
	{"0  \t 1 \t 4\n", "# vertices 2\n0 1 4\n"},
	{"\t \r\n\n0 1\n", "# vertices 2\n0 1\n"},
	{"0 4294967295\n", "error: graph: vertex id 4294967295 exceeds the text-format limit 268435456"},
	{"v 4294967295 1\n", "error: graph: vertex id 4294967295 exceeds the text-format limit 268435456"},
	{"v 0 4294967295\n", "# vertices 1\nv 0 4294967295\n"},
	{"0 1 4294967295\n", "# vertices 2\n0 1 4294967295\n"},
	{"0 4294967296\n", "error: graph: line 1: bad edge line \"0 4294967296\""},
	{"v 4294967296 1\n", "error: graph: line 1: bad vertex line \"v 4294967296 1\""},
	{"v 0 4294967296\n", "error: graph: line 1: bad vertex line \"v 0 4294967296\""},
	{"0 1 4294967296\n", "error: graph: line 1: bad edge label \"0 1 4294967296\""},
	{"00000000001 00000000002\n", "# vertices 3\n1 2\n"},
	{"v 00000000003 00000000004\n", "# vertices 4\nv 3 4\n"},
	{"0 1 00000000009\n", "# vertices 2\n0 1 9\n"},
	{"00000000001 99999999999\n", "error: graph: line 1: bad edge line \"00000000001 99999999999\""},
	{"+1 2\n", "error: graph: line 1: bad edge line \"+1 2\""},
	{"1 -2\n", "error: graph: line 1: bad edge line \"1 -2\""},
	{"v +1 2\n", "error: graph: line 1: bad vertex line \"v +1 2\""},
	{"v 1 -2\n", "error: graph: line 1: bad vertex line \"v 1 -2\""},
	{"0 1 +3\n", "error: graph: line 1: bad edge label \"0 1 +3\""},
	{"0 1 -3\n", "error: graph: line 1: bad edge label \"0 1 -3\""},
	{"0\u00a01\n", "# vertices 2\n0 1\n"},
	{"v\u00a02\u00a03\n0 2\n", "# vertices 3\nv 2 3\n0 2\n"},
	{"\u00a00 1\u00a0\n", "# vertices 2\n0 1\n"},
	{"0 1\u00a0\u00a05\n", "# vertices 2\n0 1 5\n"},
	{"0\u20031\n", "# vertices 2\n0 1\n"},
	{"0\u30001\n", "# vertices 2\n0 1\n"},
	{"0\u00851\n", "# vertices 2\n0 1\n"},
	{"0\v1\f\n", "# vertices 2\n0 1\n"},
	{"0 1\xff\n", "error: graph: line 1: bad edge line \"0 1\\xff\""},
	{"\xff0 1\n", "error: graph: line 1: bad edge line \"\\xff0 1\""},
	{"v 3\n", "error: graph: line 1: bad edge line \"v 3\""},
	{"v 3 4 5\n", "error: graph: line 1: unrecognized line \"v 3 4 5\""},
	{"v 1 2 3 4\n", "error: graph: line 1: unrecognized line \"v 1 2 3 4\""},
	{"v\n", "error: graph: line 1: unrecognized line \"v\""},
	{"v 1\n", "error: graph: line 1: bad edge line \"v 1\""},
	{"5\n", "error: graph: line 1: unrecognized line \"5\""},
	{"0 1 2 3\n", "error: graph: line 1: unrecognized line \"0 1 2 3\""},
	{"x y\n", "error: graph: line 1: bad edge line \"x y\""},
	{"1 x\n", "error: graph: line 1: bad edge line \"1 x\""},
	{"0 1 x\n", "error: graph: line 1: bad edge label \"0 1 x\""},
	{"# vertices 5\n0 1\n", "# vertices 5\n0 1\n"},
	{"#vertices 4\n", "# vertices 0\n"},
	{"#  vertices   6\n", "# vertices 6\n"},
	{"# vertices 0\n0 1\n", "# vertices 2\n0 1\n"},
	{"# vertices -3\n", "# vertices 0\n"},
	{"# comment 0 1\n2 3\n", "# vertices 4\n2 3\n"},
	{"# vertices 4 trailing\n", "# vertices 4\n"},
	{"#\n", "# vertices 0\n"},
	{"0 300000000\n", "error: graph: vertex id 300000000 exceeds the text-format limit 268435456"},
	{"v 300000000 1\n", "error: graph: vertex id 300000000 exceeds the text-format limit 268435456"},
	{"# vertices 300000001\n", "error: graph: vertex id 300000000 exceeds the text-format limit 268435456"},
	{"0 0\n1 1 5\n", "# vertices 2\n"},
	{"1 0\n0 1\n0 1 3\n1 0 2\n", "# vertices 2\n0 1 3\n"},
	{"0 1 2\n1 2\n", "# vertices 3\n0 1 2\n1 2 0\n"},
	{"0 1\r\n\r\n  \r\n1 x\r\n", "error: graph: line 4: bad edge line \"1 x\""},
	{"0 1\n# vertices 3\n\t\n1 2 3 4\n", "error: graph: line 4: unrecognized line \"1 2 3 4\""},
	{"0 1\r\n1 2\r", "# vertices 3\n0 1\n1 2\n"},
	{"0 1\r\r\n", "# vertices 2\n0 1\n"},
	{"0\r1\n", "# vertices 2\n0 1\n"},
}

func TestReadEdgeListParity(t *testing.T) {
	for _, c := range edgeListParity {
		g, err := ReadEdgeList(strings.NewReader(c.in))
		var got string
		if err != nil {
			got = "error: " + err.Error()
		} else {
			var buf bytes.Buffer
			if err := WriteEdgeList(&buf, g); err != nil {
				t.Fatal(err)
			}
			got = buf.String()
		}
		if got != c.want {
			t.Errorf("ReadEdgeList(%q):\n got %q\nwant %q", c.in, got, c.want)
		}
	}
}
