package router

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"approxmatch/internal/graph"
)

// Wire format of the coordinator protocol.
//
// Every message on a socket is one frame:
//
//	[4B big-endian length][1B version][1B frame class][payload ...]
//
// where length counts the version byte, the class byte and the payload.
// The version byte is checked on every frame, so a protocol change can
// never be silently misparsed as data. Frame classes:
//
//	frameHello     worker greeting: graph shape and signature
//	frameQuery     coordinator -> worker query ([1B endpoint][body])
//	frameResult    worker -> coordinator response
//
// Class 0x01 is retired (it carried rank-to-rank traversal envelopes) and
// must not be reused.

const (
	// wireVersion is bumped on any incompatible frame or payload change.
	wireVersion = 1
	// maxFrameLen bounds a frame's declared length; a hostile or corrupt
	// length prefix is rejected before any allocation happens.
	maxFrameLen = 16 << 20
	// frameHeaderLen is the version byte plus the class byte.
	frameHeaderLen = 2
)

// Frame classes.
const (
	frameHello  byte = 0x02
	frameQuery  byte = 0x03
	frameResult byte = 0x04
)

var (
	errFrameTooLarge = errors.New("router: frame length exceeds limit")
	errFrameTooShort = errors.New("router: frame shorter than header")
	errWireVersion   = errors.New("router: wire version mismatch")
	errTruncated     = errors.New("router: truncated wire data")
)

// appendFrame appends one framed message to dst and returns the extended
// slice.
func appendFrame(dst []byte, class byte, body []byte) []byte {
	n := frameHeaderLen + len(body)
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	dst = append(dst, wireVersion, class)
	return append(dst, body...)
}

// readFrame reads one frame from r. The declared length is validated
// before any proportional allocation: a hostile prefix costs at most one
// bounded read, never a maxFrameLen allocation for bytes that never
// arrive (the body buffer grows only as data is actually read).
func readFrame(r io.Reader) (class byte, body []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrameLen {
		return 0, nil, errFrameTooLarge
	}
	if n < frameHeaderLen {
		return 0, nil, errFrameTooShort
	}
	var vc [2]byte
	if _, err := io.ReadFull(r, vc[:]); err != nil {
		return 0, nil, readErr(err)
	}
	if vc[0] != wireVersion {
		return 0, nil, fmt.Errorf("%w: got %d, want %d", errWireVersion, vc[0], wireVersion)
	}
	rest := int(n) - frameHeaderLen
	body, err = readBounded(r, rest)
	if err != nil {
		return 0, nil, err
	}
	return vc[1], body, nil
}

// readBounded reads exactly n bytes, growing the buffer in steps so a
// hostile length prefix never forces a large up-front allocation.
func readBounded(r io.Reader, n int) ([]byte, error) {
	const step = 64 << 10
	buf := make([]byte, 0, min(n, step))
	for len(buf) < n {
		chunk := min(n-len(buf), step)
		start := len(buf)
		buf = append(buf, make([]byte, chunk)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, readErr(err)
		}
	}
	return buf, nil
}

// readErr normalizes a mid-frame EOF to ErrUnexpectedEOF so callers can
// treat any truncation uniformly.
func readErr(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// getUvarint reads one uvarint off b, returning the remainder.
func getUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errTruncated
	}
	return v, b[n:], nil
}

// GraphSignature hashes the structural identity of g — vertex count, edge
// count, every vertex's label, degree and adjacency — into one value
// (FNV-1a). The coordinator compares signatures across its rank group (and
// optionally against its own graph) at dial time, so a worker serving a
// different graph, a different relabeling, or a stale file is rejected
// before it can silently answer queries against the wrong data.
func GraphSignature(g *graph.Graph) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime
			x >>= 8
		}
	}
	n := g.NumVertices()
	mix(uint64(n))
	mix(uint64(g.NumDirectedEdges()))
	for v := 0; v < n; v++ {
		vid := graph.VertexID(v)
		mix(uint64(g.Label(vid)))
		nbrs := g.Neighbors(vid)
		mix(uint64(len(nbrs)))
		for _, w := range nbrs {
			mix(uint64(w))
		}
	}
	return h
}
