// Package graphfile is the one graph load path the binaries share.
package graphfile

import (
	"fmt"
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
	g, err := graph.ReadEdgeList(f)
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	return graph.RelabelByDegree(g), nil
}
