package router

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"

	"approxmatch/internal/graph"
)

func randomGraph(rng *rand.Rand, n, m, labels int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetLabel(graph.VertexID(v), graph.Label(rng.Intn(labels)))
	}
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(graph.VertexID(u), graph.VertexID(v))
		}
	}
	return b.Build()
}

func TestWireFrameRoundTrip(t *testing.T) {
	for _, body := range [][]byte{nil, {}, {0x01}, bytes.Repeat([]byte{0xab}, 3000)} {
		frame := appendFrame(nil, frameResult, body)
		class, got, err := readFrame(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("readFrame(%d-byte body): %v", len(body), err)
		}
		if class != frameResult {
			t.Fatalf("class = %#x, want frameResult", class)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("body round-trip mismatch at %d bytes", len(body))
		}
	}
	// Two frames back to back on one stream.
	s := appendFrame(appendFrame(nil, frameHello, []byte("a")), frameQuery, []byte("bb"))
	r := bytes.NewReader(s)
	if c, b, err := readFrame(r); err != nil || c != frameHello || string(b) != "a" {
		t.Fatalf("first frame: class %#x body %q err %v", c, b, err)
	}
	if c, b, err := readFrame(r); err != nil || c != frameQuery || string(b) != "bb" {
		t.Fatalf("second frame: class %#x body %q err %v", c, b, err)
	}
}

func TestWireFrameHostileInputs(t *testing.T) {
	valid := appendFrame(nil, frameResult, []byte{1, 2, 3})
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, io.EOF},
		{"short header", valid[:2], io.ErrUnexpectedEOF},
		{"oversized length", binary.BigEndian.AppendUint32(nil, maxFrameLen+1), errFrameTooLarge},
		{"max uint32 length", binary.BigEndian.AppendUint32(nil, ^uint32(0)), errFrameTooLarge},
		{"length below header", binary.BigEndian.AppendUint32(nil, 1), errFrameTooShort},
		{"truncated body", valid[:len(valid)-2], io.ErrUnexpectedEOF},
		{"bad version", append(binary.BigEndian.AppendUint32(nil, 2), 99, frameResult), errWireVersion},
		// A declared length far beyond the bytes that follow must fail
		// with truncation, not allocate the declared size up front (the
		// fuzz target below also pins the no-over-allocation property).
		{"huge declared, tiny stream", append(binary.BigEndian.AppendUint32(nil, maxFrameLen), wireVersion, frameResult, 0xff), io.ErrUnexpectedEOF},
	}
	for _, c := range cases {
		_, _, err := readFrame(bytes.NewReader(c.data))
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestGraphSignature(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 30, 90, 3)
	if GraphSignature(g) != GraphSignature(g) {
		t.Fatal("signature is not deterministic")
	}
	// Any structural difference — one more edge, a relabeling — must move
	// the signature: it is what stops a coordinator joining mismatched
	// workers.
	g2 := randomGraph(rand.New(rand.NewSource(9)), 30, 91, 3)
	if GraphSignature(g) == GraphSignature(g2) {
		t.Fatal("different edge sets share a signature")
	}
	rel := graph.RelabelByDegree(g)
	if GraphSignature(g) == GraphSignature(rel) {
		t.Fatal("degree relabeling did not change the signature")
	}
}

// FuzzDecodeFrame feeds hostile byte streams to the frame reader: any
// outcome but a clean parse or a clean error — a panic, or a buffer grown
// beyond the bytes actually supplied — is a bug.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(appendFrame(nil, frameResult, []byte{1, 2, 3}))
	f.Add(appendFrame(nil, frameHello, nil))
	f.Add(binary.BigEndian.AppendUint32(nil, ^uint32(0)))
	f.Add(append(binary.BigEndian.AppendUint32(nil, maxFrameLen), wireVersion, frameResult))
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		class, body, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(body) > len(data) {
			t.Fatalf("body (%d bytes) larger than input (%d bytes)", len(body), len(data))
		}
		if len(body)+frameHeaderLen > maxFrameLen {
			t.Fatalf("accepted frame beyond maxFrameLen")
		}
		_ = class
	})
}
