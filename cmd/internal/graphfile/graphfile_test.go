package graphfile

import (
	"crypto/sha256"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"approxmatch/internal/datagen"
	"approxmatch/internal/graph"
	"approxmatch/internal/router"
	"approxmatch/internal/wal"
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
			g, err := Load(writeEdgeList(t, c.g))
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

// TestSeed: a Seed's fingerprint is the SHA-256 of the file's bytes, and
// its Load returns the same sum beside exactly what Load makes.
func TestSeed(t *testing.T) {
	rmat, _ := datagen.RMATWithPattern(10)
	path := writeEdgeList(t, rmat)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := Seed(path).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp != sha256.Sum256(raw) {
		t.Fatal("Fingerprint is not the SHA-256 of the file")
	}
	g, lfp, err := Seed(path).Load()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if lfp != fp {
		t.Fatal("Seed.Load's sum differs from Fingerprint's")
	}
	if router.GraphSignature(g) != router.GraphSignature(want) || !slices.Equal(g.ExternalTable(), want.ExternalTable()) {
		t.Fatal("Seed.Load's graph differs from Load's")
	}
	missing := Seed(filepath.Join(t.TempDir(), "missing.txt"))
	if _, err := missing.Fingerprint(); err == nil {
		t.Fatal("Fingerprint of a missing file succeeded")
	}
	if _, _, err := missing.Load(); err == nil {
		t.Fatal("Seed.Load of a missing file succeeded")
	}
}

// BenchmarkRestart times amatchd's two restart paths on a WAL directory
// holding R-MAT scale 16's base checkpoint (the graph of the repo
// benchmark's cold-candset.rmat) and 16 logged ingest-sized batches (8
// inserts, 4 deletes, 2 relabels): parse the seed and recover with Open,
// as every restart did before the seed fingerprint, against fingerprint
// the file and recover from the checkpoint with OpenSeed.
func BenchmarkRestart(b *testing.B) {
	rmat, _ := datagen.RMATWithPattern(16)
	path := writeEdgeList(b, rmat)
	opts := wal.Options{Dir: filepath.Join(b.TempDir(), "wal"), CheckpointEvery: 256}
	log, rec, err := wal.OpenSeed(opts, Seed(path))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(16))
	g := rec.Graph
	for epoch := uint64(1); epoch <= 16; epoch++ {
		d := ingestBatch(g, rng)
		if g, _, err = graph.ApplyDelta(g, d); err != nil {
			b.Fatal(err)
		}
		if err := log.Append(epoch, d); err != nil {
			b.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		b.Fatal(err)
	}
	restart := func(b *testing.B, parsed bool, open func() (*wal.Log, *wal.Recovery, error)) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l, rec, err := open()
			if err != nil {
				b.Fatal(err)
			}
			if rec.Epoch != 16 || rec.Replayed != 16 || rec.SeedLoaded != parsed {
				b.Fatalf("recovered epoch %d replayed %d seed_loaded %v, want 16/16/%v", rec.Epoch, rec.Replayed, rec.SeedLoaded, parsed)
			}
			l.Close()
		}
	}
	b.Run("parse+open", func(b *testing.B) {
		restart(b, true, func() (*wal.Log, *wal.Recovery, error) {
			seed, err := Load(path)
			if err != nil {
				return nil, nil, err
			}
			return wal.Open(opts, seed)
		})
	})
	b.Run("fingerprint+open", func(b *testing.B) {
		restart(b, false, func() (*wal.Log, *wal.Recovery, error) { return wal.OpenSeed(opts, Seed(path)) })
	})
}

// ingestBatch is one valid ingest-sized delta against g: 8 inserts of absent
// edges, 4 deletes of present ones and 2 relabels, no two touching one edge
// or vertex twice.
func ingestBatch(g *graph.Graph, rng *rand.Rand) *graph.Delta {
	n := g.NumVertices()
	db := graph.NewDeltaBuilder()
	seen := map[graph.Edge]bool{}
	for dels := 0; dels < 4; {
		u := graph.VertexID(rng.Intn(n))
		ns := g.Neighbors(u)
		if len(ns) == 0 {
			continue
		}
		e := graph.Edge{U: u, V: ns[rng.Intn(len(ns))]}
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		if !seen[e] {
			seen[e] = true
			db.DeleteEdge(e.U, e.V)
			dels++
		}
	}
	for ins := 0; ins < 8; {
		e := graph.Edge{U: graph.VertexID(rng.Intn(n)), V: graph.VertexID(rng.Intn(n))}
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		if e.U != e.V && !g.HasEdge(e.U, e.V) && !seen[e] {
			seen[e] = true
			db.InsertEdge(e.U, e.V)
			ins++
		}
	}
	v := graph.VertexID(rng.Intn(n))
	db.RelabelVertex(v, 1)
	db.RelabelVertex((v+1)%graph.VertexID(n), 2)
	return db.Delta()
}

// writeEdgeList writes g as an edge-list file in a fresh temp dir.
func writeEdgeList(tb testing.TB, g *graph.Graph) string {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "graph.txt")
	f, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	return path
}
