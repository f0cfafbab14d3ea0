package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"strings"
	"testing"

	"approxmatch/internal/graph"
)

// buildLog writes count deltas into a fresh WAL dir and returns the dir,
// the per-epoch graphs (graphs[i] is the state after epoch i; graphs[0]
// is the seed), and the single segment's raw bytes.
func buildLog(t *testing.T, count int) (string, []*graph.Graph, []byte) {
	t.Helper()
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir}, testGraph())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	graphs := []*graph.Graph{testGraph()}
	cur := graphs[0]
	for i := 0; i < count; i++ {
		d := randomDelta(cur, rng)
		ng, _, err := graph.ApplyDelta(cur, d)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(uint64(i+1), d); err != nil {
			t.Fatal(err)
		}
		cur = ng
		graphs = append(graphs, cur)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegmentFiles(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("want exactly one segment, got %v (%v)", segs, err)
	}
	raw, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	return dir, graphs, raw
}

// recordBoundaries returns the byte offsets at which each record ends
// (so boundaries[i] is the segment length that holds exactly i records).
func recordBoundaries(t *testing.T, raw []byte) []int {
	t.Helper()
	bounds := []int{segHeaderLen}
	off := segHeaderLen
	for off < len(raw) {
		payloadLen := int(binary.LittleEndian.Uint32(raw[off:]))
		off += recHeaderLen + payloadLen
		bounds = append(bounds, off)
	}
	if off != len(raw) {
		t.Fatalf("segment does not parse cleanly: ended at %d of %d", off, len(raw))
	}
	return bounds
}

// TestTornTailEveryByteBoundary truncates the single segment to every
// possible length and asserts recovery lands on the newest record
// boundary at or below the cut: the acknowledged prefix survives
// bit-identically, the torn suffix is truncated, and recovery at a clean
// boundary reports no torn tail.
func TestTornTailEveryByteBoundary(t *testing.T) {
	const nRecords = 3
	_, graphs, raw := buildLog(t, nRecords)
	bounds := recordBoundaries(t, raw)
	if len(bounds) != nRecords+1 {
		t.Fatalf("boundaries = %v, want %d records", bounds, nRecords)
	}

	for size := segHeaderLen; size <= len(raw); size++ {
		// Number of complete records within the first `size` bytes, and
		// whether the cut lands exactly on a record boundary.
		complete := 0
		atBoundary := false
		for i, b := range bounds {
			if size >= b {
				complete = i
			}
			if size == b {
				atBoundary = true
			}
		}

		dir := t.TempDir()
		if err := os.WriteFile(segmentPath(dir, 1), raw[:size], 0o644); err != nil {
			t.Fatal(err)
		}
		l, rec, err := Open(Options{Dir: dir}, testGraph())
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		l.Close()
		if rec.Epoch != uint64(complete) {
			t.Fatalf("size %d: recovered epoch %d, want %d", size, rec.Epoch, complete)
		}
		if rec.TornTail == atBoundary {
			t.Fatalf("size %d: TornTail = %v with cut-at-boundary = %v", size, rec.TornTail, atBoundary)
		}
		if !bytes.Equal(graphBytes(t, rec.Graph), graphBytes(t, graphs[complete])) {
			t.Fatalf("size %d: recovered graph differs from epoch-%d state", size, complete)
		}
		// The truncated-on-disk state must itself recover cleanly (no
		// repeated truncation, same epoch).
		if complete > 0 {
			_, rec2, err := Open(Options{Dir: dir}, testGraph())
			if err != nil {
				t.Fatalf("size %d: second recovery: %v", size, err)
			}
			if rec2.Epoch != uint64(complete) || rec2.TornTail {
				t.Fatalf("size %d: second recovery epoch %d torn %v, want %d/false",
					size, rec2.Epoch, rec2.TornTail, complete)
			}
		} else if segs, _ := listSegmentFiles(dir); len(segs) != 0 {
			// A header-only or header-torn remainder must have been removed.
			t.Fatalf("size %d: empty segment left behind: %v", size, segs)
		}
	}
}

// TestBitFlipLastRecordEveryByte flips each byte of the final record in
// turn; every flip must be caught (length sanity or CRC) and truncated
// as a torn tail, recovering exactly the first two epochs.
func TestBitFlipLastRecordEveryByte(t *testing.T) {
	const nRecords = 3
	_, graphs, raw := buildLog(t, nRecords)
	bounds := recordBoundaries(t, raw)
	lastStart, lastEnd := bounds[nRecords-1], bounds[nRecords]

	for pos := lastStart; pos < lastEnd; pos++ {
		mut := append([]byte(nil), raw...)
		mut[pos] ^= 0x41
		dir := t.TempDir()
		if err := os.WriteFile(segmentPath(dir, 1), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		l, rec, err := Open(Options{Dir: dir}, testGraph())
		if err != nil {
			t.Fatalf("flip at %d: %v", pos, err)
		}
		l.Close()
		if !rec.TornTail || rec.Epoch != nRecords-1 {
			t.Fatalf("flip at %d: torn=%v epoch=%d, want torn at epoch %d",
				pos, rec.TornTail, rec.Epoch, nRecords-1)
		}
		if !bytes.Equal(graphBytes(t, rec.Graph), graphBytes(t, graphs[nRecords-1])) {
			t.Fatalf("flip at %d: recovered graph differs from epoch-%d state", pos, nRecords-1)
		}
	}
}

// TestMidLogCorruptionRefused flips a byte inside a non-final segment:
// that damage cannot come from a crash, so recovery must refuse rather
// than truncate away acknowledged records.
func TestMidLogCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so the log spans several files.
	l, _, err := Open(Options{Dir: dir, SegmentBytes: 64}, testGraph())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	appendSequence(t, l, testGraph(), 0, 8, rng)
	l.Close()
	segs, err := listSegmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("want several segments, got %d", len(segs))
	}
	victim := segs[1].path
	b, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(victim, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(Options{Dir: dir, SegmentBytes: 64}, testGraph())
	if err == nil || !strings.Contains(err.Error(), "mid-log corruption") {
		t.Fatalf("recovery of mid-log damage = %v, want refusal", err)
	}
}

// TestEpochGapRefused hand-crafts a segment whose records jump from
// epoch 1 to epoch 3. A gap means records went missing; refuse.
func TestEpochGapRefused(t *testing.T) {
	dir := t.TempDir()
	b := appendSegmentHeader(nil, 1)
	b = appendRecord(b, 1, &graph.Delta{Relabels: []graph.Relabel{{V: 0, L: 4}}})
	b = appendRecord(b, 3, &graph.Delta{Relabels: []graph.Relabel{{V: 1, L: 4}}})
	if err := os.WriteFile(segmentPath(dir, 1), b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(Options{Dir: dir}, testGraph())
	if err == nil || !strings.Contains(err.Error(), "breaks chain") {
		t.Fatalf("epoch-gap recovery = %v, want chain-break refusal", err)
	}
}

// TestDoubleReplayRefused hand-crafts a segment that repeats epoch 1
// after epoch 2 — the shape a duplicated or stale log produces. Epoch
// monotonicity must reject it.
func TestDoubleReplayRefused(t *testing.T) {
	dir := t.TempDir()
	d := &graph.Delta{Relabels: []graph.Relabel{{V: 2, L: 5}}}
	b := appendSegmentHeader(nil, 1)
	b = appendRecord(b, 1, d)
	b = appendRecord(b, 2, &graph.Delta{Relabels: []graph.Relabel{{V: 3, L: 6}}})
	b = appendRecord(b, 1, d)
	if err := os.WriteFile(segmentPath(dir, 1), b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(Options{Dir: dir}, testGraph())
	if err == nil || !strings.Contains(err.Error(), "stale or duplicated") {
		t.Fatalf("double-replay recovery = %v, want epoch-monotonicity refusal", err)
	}
}

// TestUndecodableRecordRefused: a CRC-valid record whose payload does not
// decode is semantic damage, never a torn tail — refuse even in the last
// segment.
func TestUndecodableRecordRefused(t *testing.T) {
	dir := t.TempDir()
	b := appendSegmentHeader(nil, 1)
	// Valid frame around garbage: epoch 1 plus bytes that are not a delta.
	payload := binary.LittleEndian.AppendUint64(nil, 1)
	payload = append(payload, 0xff, 0xff, 0xff) // flags byte + truncated varint
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, crcTable))
	b = append(b, payload...)
	if err := os.WriteFile(segmentPath(dir, 1), b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(Options{Dir: dir}, testGraph())
	if err == nil {
		t.Fatal("undecodable CRC-valid record accepted, want refusal")
	}
}

// TestUnappliableRecordRefused: a well-formed record whose delta fails
// validation against the recovered state (deleting an absent edge) is
// refused, not truncated.
func TestUnappliableRecordRefused(t *testing.T) {
	dir := t.TempDir()
	b := appendSegmentHeader(nil, 1)
	// testGraph has no edge 1-4.
	b = appendRecord(b, 1, &graph.Delta{Delete: []graph.Edge{{U: 1, V: 4}}})
	if err := os.WriteFile(segmentPath(dir, 1), b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(Options{Dir: dir}, testGraph())
	if err == nil || !strings.Contains(err.Error(), "replay") {
		t.Fatalf("unappliable record recovery = %v, want refusal", err)
	}
}

// TestHeaderOnlySegmentDiscarded: a crash between rotation and the first
// append of the new segment leaves a header-only file; recovery drops it
// (no records lost — none were written) without flagging a torn tail.
func TestHeaderOnlySegmentDiscarded(t *testing.T) {
	dir, graphs, _ := buildLog(t, 2)
	empty := segmentPath(dir, 3)
	if err := os.WriteFile(empty, appendSegmentHeader(nil, 3), 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec, err := Open(Options{Dir: dir}, testGraph())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if rec.Epoch != 2 || rec.TornTail {
		t.Fatalf("recovery = epoch %d torn %v, want 2/false", rec.Epoch, rec.TornTail)
	}
	if !bytes.Equal(graphBytes(t, rec.Graph), graphBytes(t, graphs[2])) {
		t.Fatal("recovered graph differs")
	}
	if _, err := os.Stat(empty); !os.IsNotExist(err) {
		t.Fatalf("header-only segment not discarded: %v", err)
	}
	// The recovered log must be able to reuse the freed name.
	if err := l.Append(3, &graph.Delta{}); err != nil {
		t.Fatalf("append after discard: %v", err)
	}
}

// TestTornHeaderSegmentDiscarded: a crash inside the new segment's
// header write leaves a short header; the file holds nothing durable and
// is removed, counted as a torn tail.
func TestTornHeaderSegmentDiscarded(t *testing.T) {
	dir, _, _ := buildLog(t, 2)
	tornPath := segmentPath(dir, 3)
	if err := os.WriteFile(tornPath, appendSegmentHeader(nil, 3)[:5], 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec, err := Open(Options{Dir: dir}, testGraph())
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if rec.Epoch != 2 || !rec.TornTail {
		t.Fatalf("recovery = epoch %d torn %v, want 2/true", rec.Epoch, rec.TornTail)
	}
	if _, err := os.Stat(tornPath); !os.IsNotExist(err) {
		t.Fatalf("torn-header segment not discarded: %v", err)
	}
}

// TestCorruptCheckpointRefused: checkpoint damage is never a torn tail
// (checkpoints are written to a temp file and renamed, so a crash leaves
// either the old set or the new file whole). Any CRC failure refuses.
func TestCorruptCheckpointRefused(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir}, testGraph())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, &graph.Delta{Relabels: []graph.Relabel{{V: 0, L: 9}}}); err != nil {
		t.Fatal(err)
	}
	g, _, err := graph.ApplyDelta(testGraph(), &graph.Delta{Relabels: []graph.Relabel{{V: 0, L: 9}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(g, 1); err != nil {
		t.Fatal(err)
	}
	l.Close()
	ckpts, err := listCheckpointFiles(dir)
	if err != nil || len(ckpts) != 1 {
		t.Fatalf("checkpoints = %v (%v)", ckpts, err)
	}
	b, err := os.ReadFile(ckpts[0].path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x01
	if err := os.WriteFile(ckpts[0].path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir}, testGraph()); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
}

// TestCheckpointSeedMismatchRefused: pointing amatchd at the wrong WAL
// dir (checkpoint for a different graph) must fail loudly.
func TestCheckpointSeedMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir}, testGraph())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, &graph.Delta{}); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(testGraph(), 1); err != nil {
		t.Fatal(err)
	}
	l.Close()
	other := graph.NewBuilder(3)
	other.AddEdge(0, 1)
	_, _, err = Open(Options{Dir: dir}, other.Build())
	if err == nil || !strings.Contains(err.Error(), "wrong WAL dir") {
		t.Fatalf("mismatched seed recovery = %v, want refusal", err)
	}
}

// TestNoSeedNoCheckpoint: nothing to recover from is an error, not an
// empty graph.
func TestNoSeedNoCheckpoint(t *testing.T) {
	if _, _, err := Open(Options{Dir: t.TempDir()}, nil); err == nil {
		t.Fatal("Open with no seed and no checkpoint succeeded")
	}
}

// TestRecoveryIsIdempotent: recovering the same directory twice (no
// appends in between) yields the identical graph and epoch — the
// restart-identity core.
func TestRecoveryIsIdempotent(t *testing.T) {
	dir, graphs, _ := buildLog(t, 5)
	for round := 0; round < 3; round++ {
		l, rec, err := Open(Options{Dir: dir}, testGraph())
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		l.Close()
		if rec.Epoch != 5 {
			t.Fatalf("round %d: epoch %d, want 5", round, rec.Epoch)
		}
		if !bytes.Equal(graphBytes(t, rec.Graph), graphBytes(t, graphs[5])) {
			t.Fatalf("round %d: graph drifted", round)
		}
	}
}

// TestReplayEmptyDelta: an empty delta is a valid record that advances the
// epoch without changing the graph, so recovery replays it and keeps the
// chain going.
func TestReplayEmptyDelta(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir}, testGraph())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, &graph.Delta{}); err != nil {
		t.Fatal(err)
	}
	want, _ := appendSequence(t, l, testGraph(), 1, 1, rand.New(rand.NewSource(3)))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec, err := Open(Options{Dir: dir}, testGraph())
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.Epoch != 2 || rec.Replayed != 2 {
		t.Fatalf("recovery = epoch %d replayed %d, want 2/2 (the empty record included)", rec.Epoch, rec.Replayed)
	}
	if !bytes.Equal(graphBytes(t, rec.Graph), graphBytes(t, want)) {
		t.Fatal("recovered graph differs from the seed plus the one real delta")
	}
}
