// Package graphfile is the one graph load path the binaries share.
package graphfile

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"

	"approxmatch/internal/graph"
)

// Load reads an edge-list file and relabels the graph to degree-ordered
// internal ids (cache locality for the kernels). Every output path — CLI
// listings, /match vectors, /ingest batches, exports — translates at the
// boundary, so callers and clients always speak the input file's ids.
func Load(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return read(f, path)
}

// Seed is an edge-list file as a WAL recovery reads it (wal.Seed).
type Seed string

// Fingerprint streams the file through SHA-256. Identical bytes load to an
// identical graph, so the fingerprint stands in for the graph wherever
// only "same seed as last time" matters.
func (path Seed) Fingerprint() ([sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	f, err := os.Open(string(path))
	if err != nil {
		return sum, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return sum, fmt.Errorf("fingerprint %s: %w", path, err)
	}
	h.Sum(sum[:0])
	return sum, nil
}

// Load is the package's Load that also returns the SHA-256 of the bytes it
// parsed, so a caller that records the fingerprint records the graph it got
// even if the file changes underneath it.
func (path Seed) Load() (*graph.Graph, [sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	f, err := os.Open(string(path))
	if err != nil {
		return nil, sum, err
	}
	defer f.Close()
	h := sha256.New()
	g, err := read(io.TeeReader(f, h), string(path))
	if err != nil {
		return nil, sum, err
	}
	h.Sum(sum[:0])
	return g, sum, nil
}

func read(r io.Reader, path string) (*graph.Graph, error) {
	g, err := graph.ReadEdgeList(r)
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	return graph.RelabelByDegree(g), nil
}
