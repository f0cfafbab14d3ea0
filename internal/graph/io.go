package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"unicode"
	"unicode/utf8"
)

// WriteEdgeList writes g in a simple text format: a header line
// "# vertices <n>", one "v <id> <label>" line per vertex with a nonzero
// label, and one "<u> <v>" (or "<u> <v> <edgelabel>" for edge-labeled
// graphs) line per undirected edge.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# vertices %d\n", g.NumVertices()); err != nil {
		return err
	}
	for v := 0; v < g.NumVertices(); v++ {
		if l := g.Label(VertexID(v)); l != 0 {
			if _, err := fmt.Fprintf(bw, "v %d %d\n", v, l); err != nil {
				return err
			}
		}
	}
	labeled := g.HasEdgeLabels()
	for _, e := range g.Edges() {
		if labeled {
			l, _ := g.EdgeLabelBetween(e.U, e.V)
			if _, err := fmt.Fprintf(bw, "%d %d %d\n", e.U, e.V, l); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoaderLimits bounds what the loaders will allocate before any payload is
// trusted, so a corrupt or hostile file yields an error instead of an OOM
// kill. The zero value of either field picks the package default.
type LoaderLimits struct {
	// MaxVertices caps the vertex count (default 1<<28).
	MaxVertices int64
	// MaxDirectedEdges caps the directed adjacency slots — twice the
	// undirected edge count (default 1<<31). Only the binary loader sizes
	// allocations from a declared edge count; the text loader grows
	// proportionally to its input and is bounded by MaxVertices alone.
	MaxDirectedEdges int64
}

// DefaultLoaderLimits returns the limits ReadEdgeList and ReadBinary apply.
func DefaultLoaderLimits() LoaderLimits {
	return LoaderLimits{MaxVertices: 1 << 28, MaxDirectedEdges: 1 << 31}
}

func (l LoaderLimits) withDefaults() LoaderLimits {
	d := DefaultLoaderLimits()
	if l.MaxVertices <= 0 {
		l.MaxVertices = d.MaxVertices
	}
	if l.MaxDirectedEdges <= 0 {
		l.MaxDirectedEdges = d.MaxDirectedEdges
	}
	return l
}

// ReadEdgeList parses the format produced by WriteEdgeList. Lines starting
// with '#' other than the vertex header are ignored, as are blank lines.
// Fields are separated by any run of Unicode white space, and ids and labels
// are unsigned decimal uint32s.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	return ReadEdgeListLimits(r, DefaultLoaderLimits())
}

// ReadEdgeListLimits is ReadEdgeList with explicit loader limits.
func ReadEdgeListLimits(r io.Reader, lim LoaderLimits) (*Graph, error) {
	lim = lim.withDefaults()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	b := NewBuilder(0)
	maxParsedVertices := uint64(lim.MaxVertices)
	ensure := func(v uint64) error {
		if v >= maxParsedVertices {
			return fmt.Errorf("graph: vertex id %d exceeds the text-format limit %d", v, maxParsedVertices)
		}
		for uint64(b.NumVertices()) <= v {
			b.AddVertex(0)
		}
		return nil
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if line[0] == '#' {
			var n int64
			if _, err := fmt.Sscanf(string(line), "# vertices %d", &n); err == nil && n > 0 {
				if err := ensure(uint64(n) - 1); err != nil {
					return nil, err
				}
			}
			continue
		}
		// Split the line in place; nf counts its fields up to one past the
		// three any line may have.
		var f [3][]byte
		nf := 0
		for rest := line; nf <= len(f); nf++ {
			var tok []byte
			if tok, rest = nextField(rest); len(tok) == 0 {
				break
			}
			if nf < len(f) {
				f[nf] = tok
			}
		}
		switch {
		case nf == 3 && string(f[0]) == "v":
			id, ok1 := parseUint32(f[1])
			l, ok2 := parseUint32(f[2])
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("graph: line %d: bad vertex line %q", lineNo, line)
			}
			if err := ensure(uint64(id)); err != nil {
				return nil, err
			}
			b.SetLabel(id, l)
		case nf == 2 || nf == 3:
			u, ok1 := parseUint32(f[0])
			v, ok2 := parseUint32(f[1])
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("graph: line %d: bad edge line %q", lineNo, line)
			}
			if err := ensure(uint64(u)); err != nil {
				return nil, err
			}
			if err := ensure(uint64(v)); err != nil {
				return nil, err
			}
			if nf == 3 {
				el, ok := parseUint32(f[2])
				if !ok {
					return nil, fmt.Errorf("graph: line %d: bad edge label %q", lineNo, line)
				}
				b.AddEdgeLabeled(u, v, el)
			} else {
				b.AddEdge(u, v)
			}
		default:
			return nil, fmt.Errorf("graph: line %d: unrecognized line %q", lineNo, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// nextField splits the first field off s as strings.Fields would: fields
// are separated by runs of Unicode white space, and a byte that is not valid
// UTF-8 belongs to a field. The field is empty when s holds none. A field is
// walked a byte at a time: a byte inside a multi-byte rune never starts a
// valid rune, so it is never taken for white space.
func nextField(s []byte) (field, rest []byte) {
	i := 0
	for i < len(s) {
		w := spaceWidth(s[i:])
		if w == 0 {
			break
		}
		i += w
	}
	j := i
	for j < len(s) && spaceWidth(s[j:]) == 0 {
		j++
	}
	return s[i:j], s[j:]
}

// spaceWidth is the width in bytes of the white-space rune s starts with, or
// 0 when s starts with anything else.
func spaceWidth(s []byte) int {
	if c := s[0]; c < utf8.RuneSelf {
		return int(asciiSpace[c])
	}
	return runeSpaceWidth(s)
}

func runeSpaceWidth(s []byte) int {
	if r, size := utf8.DecodeRune(s); unicode.IsSpace(r) {
		return size
	}
	return 0
}

// asciiSpace marks the ASCII white-space bytes.
var asciiSpace = [utf8.RuneSelf]uint8{'\t': 1, '\n': 1, '\v': 1, '\f': 1, '\r': 1, ' ': 1}

// parseUint32 parses s as strconv.ParseUint(s, 10, 32) does: one or more
// ASCII digits, leading zeros allowed, no sign, at most math.MaxUint32.
func parseUint32(s []byte) (uint32, bool) {
	if len(s) == 0 {
		return 0, false
	}
	var x uint64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, false
		}
		if x = x*10 + uint64(c-'0'); x > math.MaxUint32 {
			return 0, false
		}
	}
	return uint32(x), true
}

const (
	binaryMagic   = uint32(0x47435352) // "GCSR": vertex labels only
	binaryMagicEL = uint32(0x47435332) // "GCS2": with edge labels
)

// WriteBinary writes g in a compact binary CSR format, used by the
// checkpoint/reload load-balancing path (§4, "Load Balancing"). Edge
// labels, when present, are carried in a versioned section.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	magic := binaryMagic
	if g.HasEdgeLabels() {
		magic = binaryMagicEL
	}
	hdr := []uint64{uint64(magic), uint64(g.NumVertices()), uint64(len(g.adj))}
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	for _, section := range []any{g.offsets, g.adj, g.labels} {
		if err := binary.Write(bw, binary.LittleEndian, section); err != nil {
			return err
		}
	}
	if g.HasEdgeLabels() {
		if err := binary.Write(bw, binary.LittleEndian, g.edgeLabels); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary reads a graph produced by WriteBinary under the default loader
// limits.
func ReadBinary(r io.Reader) (*Graph, error) {
	return ReadBinaryLimits(r, DefaultLoaderLimits())
}

// ReadBinaryLimits is ReadBinary with explicit loader limits. The declared
// header sizes are checked against the limits BEFORE anything is allocated —
// a hostile header cannot force a multi-gigabyte allocation — and the decoded
// CSR structure is validated before the graph is returned, so downstream code
// indexing by offsets or neighbor ids cannot be made to panic by a crafted
// payload.
func ReadBinaryLimits(r io.Reader, lim LoaderLimits) (*Graph, error) {
	lim = lim.withDefaults()
	br := bufio.NewReader(r)
	var magic, n, m uint64
	for _, p := range []*uint64{&magic, &n, &m} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, err
		}
	}
	if uint32(magic) != binaryMagic && uint32(magic) != binaryMagicEL {
		return nil, fmt.Errorf("graph: bad binary magic %#x", magic)
	}
	// Bound the header before allocating. The uint64 comparisons are safe
	// for any declared size: limits are positive int64s, so the casts below
	// never truncate a value that passed the check.
	if n > uint64(lim.MaxVertices) {
		return nil, fmt.Errorf("graph: binary header declares %d vertices, limit is %d", n, lim.MaxVertices)
	}
	if m > uint64(lim.MaxDirectedEdges) {
		return nil, fmt.Errorf("graph: binary header declares %d directed edges, limit is %d", m, lim.MaxDirectedEdges)
	}
	g := &Graph{
		offsets: make([]int64, n+1),
		adj:     make([]VertexID, m),
		labels:  make([]Label, n),
	}
	for _, section := range []any{g.offsets, g.adj, g.labels} {
		if err := binary.Read(br, binary.LittleEndian, section); err != nil {
			return nil, err
		}
	}
	if uint32(magic) == binaryMagicEL {
		g.edgeLabels = make([]Label, m)
		if err := binary.Read(br, binary.LittleEndian, g.edgeLabels); err != nil {
			return nil, err
		}
	}
	if err := validateCSR(g, int64(m)); err != nil {
		return nil, err
	}
	return g, nil
}

// validateCSR checks the decoded arrays form a well-formed CSR before any
// accessor touches them: monotone offsets spanning exactly the adjacency
// section, and in-range neighbor ids. Graph.Validate checks the stronger
// semantic invariants (sortedness, symmetry) but itself indexes by offsets,
// so this structural pass must come first.
func validateCSR(g *Graph, m int64) error {
	if g.offsets[0] != 0 {
		return fmt.Errorf("graph: binary offsets start at %d, want 0", g.offsets[0])
	}
	for i := 1; i < len(g.offsets); i++ {
		if g.offsets[i] < g.offsets[i-1] {
			return fmt.Errorf("graph: binary offsets decrease at vertex %d", i-1)
		}
	}
	if last := g.offsets[len(g.offsets)-1]; last != m {
		return fmt.Errorf("graph: binary offsets end at %d, want %d", last, m)
	}
	n := VertexID(len(g.labels))
	for i, v := range g.adj {
		if v >= n {
			return fmt.Errorf("graph: binary adjacency slot %d holds out-of-range vertex %d", i, v)
		}
	}
	return nil
}
