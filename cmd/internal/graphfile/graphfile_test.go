package graphfile

import (
	"encoding/binary"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"approxmatch/internal/datagen"
	"approxmatch/internal/graph"
	"approxmatch/internal/router"
)

// TestLoadSignaturePinned pins what Load makes of the benchmark's two
// generated graphs: the CSR (router.GraphSignature), the degree relabeling's
// internal→external table and the edge count. The constants were recorded
// before the loader, Builder.Build and RelabelByDegree lost their sorts; any
// change to what a served graph looks like fails here.
func TestLoadSignaturePinned(t *testing.T) {
	rmat, _ := datagen.RMATWithPattern(16)
	cases := []struct {
		name  string
		g     *graph.Graph
		sig   uint64
		table uint64
		edges int
	}{
		{"wdc", datagen.WDC(datagen.DefaultWDCConfig()), 16784808069056266699, 15177201318794383833, 401178},
		{"rmat16", rmat, 14808777819904524010, 10006903419280885053, 914311},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "graph.txt")
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := graph.WriteEdgeList(f, c.g); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			g, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			sig, table := router.GraphSignature(g), tableHash(g.ExternalTable())
			if sig != c.sig || table != c.table || g.NumEdges() != c.edges {
				t.Fatalf("Load gave sig=%d table=%d edges=%d, pinned sig=%d table=%d edges=%d",
					sig, table, g.NumEdges(), c.sig, c.table, c.edges)
			}
		})
	}
}

// tableHash is FNV-1a over the table's little-endian uint32s.
func tableHash(table []graph.VertexID) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range table {
		binary.LittleEndian.PutUint32(b[:], v)
		h.Write(b[:])
	}
	return h.Sum64()
}
