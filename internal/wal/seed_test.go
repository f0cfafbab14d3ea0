package wal

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"approxmatch/internal/graph"
)

// seedText is a Seed a test can edit; it counts its loads. The graph is
// irregular enough that the degree relabel is not the identity, so
// recovery must carry the external-id table across restarts.
type seedText struct {
	text  []byte
	loads int
}

func newSeedText(t *testing.T, n int) *seedText {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetLabel(graph.VertexID(v), graph.Label(v%3))
		for w := v + 1; w < n; w++ {
			if rng.Intn(3) == 0 {
				b.AddEdge(graph.VertexID(v), graph.VertexID(w))
			}
		}
	}
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, b.Build()); err != nil {
		t.Fatal(err)
	}
	return &seedText{text: buf.Bytes()}
}

func (s *seedText) fingerprint() [sha256.Size]byte { return sha256.Sum256(s.text) }

func (s *seedText) Fingerprint() ([sha256.Size]byte, error) { return s.fingerprint(), nil }

func (s *seedText) Load() (*graph.Graph, [sha256.Size]byte, error) {
	s.loads++
	g, err := graph.ReadEdgeList(bytes.NewReader(s.text))
	if err != nil {
		return nil, [sha256.Size]byte{}, err
	}
	return graph.RelabelByDegree(g), s.fingerprint(), nil
}

// graph parses the seed without counting a load: what a full-parse restart
// hands Open.
func (s *seedText) graph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.ReadEdgeList(bytes.NewReader(s.text))
	if err != nil {
		t.Fatal(err)
	}
	return graph.RelabelByDegree(g)
}

// openSeed restarts dir through OpenSeed and closes the log.
func (s *seedText) openSeed(t *testing.T, dir string, every int) *Recovery {
	t.Helper()
	l, rec, err := OpenSeed(Options{Dir: dir, CheckpointEvery: every}, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return rec
}

// openParsed restarts dir the full-parse way, Open with a fresh seed.
func (s *seedText) openParsed(t *testing.T, dir string) *Recovery {
	t.Helper()
	l, rec, err := Open(Options{Dir: dir}, s.graph(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return rec
}

func sameRecovery(t *testing.T, got, want *Recovery) {
	t.Helper()
	if got.Epoch != want.Epoch || got.Replayed != want.Replayed {
		t.Fatalf("recovered epoch %d replayed %d, full parse %d/%d", got.Epoch, got.Replayed, want.Epoch, want.Replayed)
	}
	if !bytes.Equal(graphBytes(t, got.Graph), graphBytes(t, want.Graph)) {
		t.Fatal("recovered graph differs from the full-parse recovery")
	}
	if !reflect.DeepEqual(got.Graph.ExternalTable(), want.Graph.ExternalTable()) {
		t.Fatal("recovered external-id table differs from the full-parse recovery")
	}
}

func readFingerprint(t *testing.T, dir string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, seedFingerprintFile))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// seededTwins starts dir through OpenSeed and its twin through Open on the
// same seed, then logs the same deltas into both. The twin never holds a
// checkpoint or a fingerprint: every restart of it is a full parse.
func seededTwins(t *testing.T, s *seedText, deltas int) (dir, twin string) {
	t.Helper()
	dir, twin = t.TempDir(), t.TempDir()
	l, rec, err := OpenSeed(Options{Dir: dir, CheckpointEvery: 8}, s)
	if err != nil {
		t.Fatal(err)
	}
	if s.loads != 1 || !rec.SeedLoaded || rec.FromCheckpoint || rec.Epoch != 0 {
		t.Fatalf("fresh dir: loads %d seed_loaded %v from_checkpoint %v epoch %d, want 1/true/false/0",
			s.loads, rec.SeedLoaded, rec.FromCheckpoint, rec.Epoch)
	}
	ckpts, err := listCheckpointFiles(dir)
	if err != nil || len(ckpts) != 1 || ckpts[0].epoch != 0 {
		t.Fatalf("fresh dir checkpoints = %v (%v), want one at epoch 0", ckpts, err)
	}
	if fp := s.fingerprint(); !bytes.Equal(readFingerprint(t, dir), fp[:]) {
		t.Fatal("fresh dir: recorded fingerprint is not the seed's")
	}
	if rec.Graph.ExternalTable() == nil {
		t.Fatal("seed relabels to the identity; the external-id table goes untested")
	}
	tl, _, err := Open(Options{Dir: twin}, s.graph(t))
	if err != nil {
		t.Fatal(err)
	}
	appendSequence(t, l, rec.Graph, 0, deltas, rand.New(rand.NewSource(9)))
	appendSequence(t, tl, rec.Graph, 0, deltas, rand.New(rand.NewSource(9)))
	for _, lg := range []*Log{l, tl} {
		if err := lg.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return dir, twin
}

// TestOpenSeedSkipsParse: a restart on the seed bytes the directory
// recorded never calls the loader and recovers exactly what a full parse
// of a twin directory recovers.
func TestOpenSeedSkipsParse(t *testing.T) {
	s := newSeedText(t, 24)
	dir, twin := seededTwins(t, s, 6)
	for round := 0; round < 2; round++ {
		rec := s.openSeed(t, dir, 8)
		if s.loads != 1 || rec.SeedLoaded || !rec.FromCheckpoint {
			t.Fatalf("round %d: loads %d seed_loaded %v from_checkpoint %v, want 1/false/true",
				round, s.loads, rec.SeedLoaded, rec.FromCheckpoint)
		}
		sameRecovery(t, rec, s.openParsed(t, twin))
	}
}

// TestOpenSeedNewBytesReparse: a seed whose bytes changed — the same graph
// behind an added comment line, or a damaged or half-written fingerprint —
// is parsed once, recovers as a full parse does, and is recorded again, so
// the next restart skips the parse.
func TestOpenSeedNewBytesReparse(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, s *seedText, dir string)
	}{
		{"comment", func(t *testing.T, s *seedText, dir string) {
			s.text = append(s.text, "# note\n"...)
		}},
		{"truncated", func(t *testing.T, s *seedText, dir string) {
			if err := os.Truncate(filepath.Join(dir, seedFingerprintFile), sha256.Size/2); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbage", func(t *testing.T, s *seedText, dir string) {
			if err := os.WriteFile(filepath.Join(dir, seedFingerprintFile), bytes.Repeat([]byte{0xaa}, sha256.Size), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"tmp-only", func(t *testing.T, s *seedText, dir string) {
			// A crash between the checkpoint and the fingerprint's rename.
			path := filepath.Join(dir, seedFingerprintFile)
			if err := os.Rename(path, path+".tmp"); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newSeedText(t, 24)
			dir, twin := seededTwins(t, s, 5)
			tc.damage(t, s, dir)
			rec := s.openSeed(t, dir, 8)
			if s.loads != 2 || !rec.SeedLoaded {
				t.Fatalf("loads %d seed_loaded %v, want 2/true", s.loads, rec.SeedLoaded)
			}
			sameRecovery(t, rec, s.openParsed(t, twin))
			if fp := s.fingerprint(); !bytes.Equal(readFingerprint(t, dir), fp[:]) {
				t.Fatal("fingerprint not re-recorded after the parse")
			}
			if _, err := os.Stat(filepath.Join(dir, seedFingerprintFile+".tmp")); !os.IsNotExist(err) {
				t.Fatalf("fingerprint .tmp left behind: %v", err)
			}
			rec = s.openSeed(t, dir, 8)
			if s.loads != 2 || rec.SeedLoaded {
				t.Fatalf("restart after re-recording: loads %d seed_loaded %v, want 2/false", s.loads, rec.SeedLoaded)
			}
			sameRecovery(t, rec, s.openParsed(t, twin))
		})
	}
}

// TestOpenSeedWrongGraphRefused: a seed with a different vertex count is
// parsed and refused, as Open refuses it, and the recorded fingerprint
// stays the original seed's.
func TestOpenSeedWrongGraphRefused(t *testing.T) {
	s := newSeedText(t, 24)
	dir, _ := seededTwins(t, s, 3)
	other := newSeedText(t, 23)
	_, _, err := OpenSeed(Options{Dir: dir, CheckpointEvery: 8}, other)
	if err == nil || !strings.Contains(err.Error(), "wrong WAL dir") {
		t.Fatalf("mismatched seed recovery = %v, want refusal", err)
	}
	if other.loads != 1 {
		t.Fatalf("loads %d, want 1", other.loads)
	}
	if fp := s.fingerprint(); !bytes.Equal(readFingerprint(t, dir), fp[:]) {
		t.Fatal("refused seed replaced the recorded fingerprint")
	}
}

// TestOpenSeedNoCheckpoints: with CheckpointEvery 0 OpenSeed is load plus
// Open on every start and writes neither a checkpoint nor a fingerprint.
func TestOpenSeedNoCheckpoints(t *testing.T) {
	s := newSeedText(t, 24)
	dir := t.TempDir()
	for round := 1; round <= 2; round++ {
		rec := s.openSeed(t, dir, 0)
		if s.loads != round || !rec.SeedLoaded || rec.FromCheckpoint {
			t.Fatalf("round %d: loads %d seed_loaded %v from_checkpoint %v", round, s.loads, rec.SeedLoaded, rec.FromCheckpoint)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, seedFingerprintFile)); !os.IsNotExist(err) {
		t.Fatalf("fingerprint written with CheckpointEvery 0: %v", err)
	}
	if ckpts, err := listCheckpointFiles(dir); err != nil || len(ckpts) != 0 {
		t.Fatalf("checkpoints = %v (%v), want none", ckpts, err)
	}
}
