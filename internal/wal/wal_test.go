package wal

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"approxmatch/internal/graph"
)

// testGraph builds a small labeled graph: a 5-cycle plus a chord.
func testGraph() *graph.Graph {
	b := graph.NewBuilder(6)
	for v := 0; v < 6; v++ {
		b.SetLabel(graph.VertexID(v), graph.Label(v%3))
	}
	for _, e := range [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 2}} {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// graphBytes serializes g for structural equality checks (offsets, adj,
// labels, edge labels — everything the binary format covers).
func graphBytes(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// randomDelta builds a delta that is valid against g: it deletes one
// present edge, inserts one absent edge, and relabels one vertex, all
// drawn from rng.
func randomDelta(g *graph.Graph, rng *rand.Rand) *graph.Delta {
	n := g.NumVertices()
	b := graph.NewDeltaBuilder()
	// Delete a present edge.
	for {
		u := graph.VertexID(rng.Intn(n))
		nb := g.Neighbors(u)
		if len(nb) == 0 {
			continue
		}
		b.DeleteEdge(u, nb[rng.Intn(len(nb))])
		break
	}
	// Insert an absent edge (distinct endpoints).
	for {
		u, v := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		b.InsertEdge(u, v)
		break
	}
	b.RelabelVertex(graph.VertexID(rng.Intn(n)), graph.Label(rng.Intn(8)))
	return b.Delta()
}

// appendSequence applies and logs count random deltas, returning the
// final graph and epoch.
func appendSequence(t *testing.T, l *Log, g *graph.Graph, fromEpoch uint64, count int, rng *rand.Rand) (*graph.Graph, uint64) {
	t.Helper()
	cur, epoch := g, fromEpoch
	for i := 0; i < count; i++ {
		d := randomDelta(cur, rng)
		ng, _, err := graph.ApplyDelta(cur, d)
		if err != nil {
			t.Fatalf("apply delta %d: %v", i, err)
		}
		if err := l.Append(epoch+1, d); err != nil {
			t.Fatalf("append epoch %d: %v", epoch+1, err)
		}
		cur, epoch = ng, epoch+1
	}
	return cur, epoch
}

func TestDeltaCodecRoundTrip(t *testing.T) {
	cases := []*graph.Delta{
		{},
		{Insert: []graph.Edge{{U: 1, V: 2}, {U: 3, V: 4}}},
		{Insert: []graph.Edge{{U: 0, V: 5}}, InsertLabels: []graph.Label{7}},
		{Delete: []graph.Edge{{U: 2, V: 0}}},
		{Relabels: []graph.Relabel{{V: 4, L: 9}, {V: 0, L: 0}}},
		{
			Insert:       []graph.Edge{{U: 1, V: 1 << 30}},
			InsertLabels: []graph.Label{1<<32 - 1},
			Delete:       []graph.Edge{{U: 9, V: 10}},
			Relabels:     []graph.Relabel{{V: 1<<32 - 1, L: 3}},
		},
	}
	for i, d := range cases {
		enc := appendDelta(nil, d)
		got, err := decodeDelta(enc)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		norm := func(d *graph.Delta) *graph.Delta {
			if d.Insert == nil {
				d.Insert = []graph.Edge{}
			}
			if d.Delete == nil {
				d.Delete = []graph.Edge{}
			}
			if d.Relabels == nil {
				d.Relabels = []graph.Relabel{}
			}
			return d
		}
		want := norm(&graph.Delta{Insert: d.Insert, InsertLabels: d.InsertLabels, Delete: d.Delete, Relabels: d.Relabels})
		if !reflect.DeepEqual(norm(got), want) {
			t.Errorf("case %d: round trip mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncNone} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			seed := testGraph()
			opts := Options{Dir: dir, Sync: policy}
			l, rec, err := Open(opts, seed)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Epoch != 0 || rec.Replayed != 0 || rec.FromCheckpoint {
				t.Fatalf("fresh dir recovery = %+v, want zero state", rec)
			}
			rng := rand.New(rand.NewSource(7))
			want, wantEpoch := appendSequence(t, l, seed, 0, 20, rng)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			l2, rec2, err := Open(opts, testGraph())
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if rec2.Epoch != wantEpoch || rec2.Replayed != 20 {
				t.Fatalf("recovered epoch %d replayed %d, want %d/%d", rec2.Epoch, rec2.Replayed, wantEpoch, 20)
			}
			if !bytes.Equal(graphBytes(t, rec2.Graph), graphBytes(t, want)) {
				t.Fatal("recovered graph differs from the graph the appends built")
			}
			// The recovered log accepts the next epoch.
			if err := l2.Append(wantEpoch+1, &graph.Delta{}); err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
		})
	}
}

func TestAppendEpochOrdering(t *testing.T) {
	l, _, err := Open(Options{Dir: t.TempDir()}, testGraph())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(2, &graph.Delta{}); err == nil {
		t.Fatal("append of epoch 2 on an empty log succeeded, want out-of-order error")
	}
	if err := l.Append(1, &graph.Delta{}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, &graph.Delta{}); err == nil {
		t.Fatal("duplicate epoch 1 append succeeded, want out-of-order error")
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every record rotates after the first.
	l, _, err := Open(Options{Dir: dir, SegmentBytes: 64}, testGraph())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	want, wantEpoch := appendSequence(t, l, testGraph(), 0, 10, rng)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("got %d segments, want rotation to produce several", len(segs))
	}
	_, rec, err := Open(Options{Dir: dir, SegmentBytes: 64}, testGraph())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Epoch != wantEpoch || !bytes.Equal(graphBytes(t, rec.Graph), graphBytes(t, want)) {
		t.Fatalf("multi-segment recovery diverged: epoch %d want %d", rec.Epoch, wantEpoch)
	}
}

func TestCheckpointBoundsReplayAndPrunes(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, SegmentBytes: 128, CheckpointEvery: 5}
	l, _, err := Open(opts, testGraph())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	cur, epoch := testGraph(), uint64(0)
	for i := 0; i < 12; i++ {
		d := randomDelta(cur, rng)
		ng, _, err := graph.ApplyDelta(cur, d)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(epoch+1, d); err != nil {
			t.Fatal(err)
		}
		cur, epoch = ng, epoch+1
		wrote, err := l.MaybeCheckpoint(cur, epoch)
		if err != nil {
			t.Fatalf("checkpoint at epoch %d: %v", epoch, err)
		}
		if want := epoch%5 == 0; wrote != want {
			t.Fatalf("MaybeCheckpoint at epoch %d wrote=%v, want %v", epoch, wrote, want)
		}
	}
	st := l.Stats()
	if st.Checkpoints != 2 {
		t.Fatalf("Checkpoints = %d, want 2 (every 5 of 12 appends)", st.Checkpoints)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	ckpts, err := listCheckpointFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpts) != 1 || ckpts[0].epoch != 10 {
		t.Fatalf("checkpoints on disk = %+v, want exactly one at epoch 10", ckpts)
	}

	_, rec, err := Open(opts, testGraph())
	if err != nil {
		t.Fatal(err)
	}
	if !rec.FromCheckpoint || rec.CheckpointEpoch != 10 {
		t.Fatalf("recovery = %+v, want from checkpoint 10", rec)
	}
	if rec.Replayed != 2 {
		t.Fatalf("replayed %d records, want 2 (tail after checkpoint)", rec.Replayed)
	}
	if rec.Epoch != 12 || !bytes.Equal(graphBytes(t, rec.Graph), graphBytes(t, cur)) {
		t.Fatal("checkpoint-plus-tail recovery diverged from the applied sequence")
	}
}

func TestCheckpointPersistsExternalTable(t *testing.T) {
	dir := t.TempDir()
	// Build a graph whose degree order differs from load order, relabel it
	// (as amatchd does), and checkpoint.
	b := graph.NewBuilder(4)
	b.SetLabel(0, 1)
	b.SetLabel(3, 2)
	for _, e := range [][2]graph.VertexID{{3, 0}, {3, 1}, {3, 2}, {0, 1}} {
		b.AddEdge(e[0], e[1])
	}
	g := graph.RelabelByDegree(b.Build())
	if !g.Relabeled() {
		t.Fatal("test graph should relabel")
	}
	l, _, err := Open(Options{Dir: dir}, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, &graph.Delta{}); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(g, 1); err != nil {
		t.Fatal(err)
	}
	l.Close()

	_, rec, err := Open(Options{Dir: dir}, g)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.FromCheckpoint {
		t.Fatal("recovery ignored the checkpoint")
	}
	// A checkpoint at the final epoch leaves no tail to replay.
	if rec.Replayed != 0 || rec.CheckpointEpoch != 1 || rec.Epoch != 1 {
		t.Fatalf("recovery = replayed %d, checkpoint epoch %d, epoch %d; want 0, 1, 1",
			rec.Replayed, rec.CheckpointEpoch, rec.Epoch)
	}
	if !reflect.DeepEqual(rec.Graph.ExternalTable(), g.ExternalTable()) {
		t.Fatalf("external table lost across checkpoint: got %v want %v",
			rec.Graph.ExternalTable(), g.ExternalTable())
	}
	for v := 0; v < 4; v++ {
		if rec.Graph.ExternalID(graph.VertexID(v)) != g.ExternalID(graph.VertexID(v)) {
			t.Fatalf("ExternalID(%d) diverged after recovery", v)
		}
	}
}

func TestTornWriteRollsBack(t *testing.T) {
	dir := t.TempDir()
	var ff *FaultFile
	opts := Options{
		Dir: dir,
		OpenFile: func(path string) (File, error) {
			// Tear the third write on the first segment: header is write 1,
			// records are writes 2, 3, ...
			f, err := NewFaultFile(path, FaultSpec{TearWriteAt: 3, TearKeepBytes: 5})
			ff = f
			return f, err
		},
	}
	l, _, err := Open(opts, testGraph())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, &graph.Delta{Relabels: []graph.Relabel{{V: 0, L: 5}}}); err != nil {
		t.Fatal(err)
	}
	err = l.Append(2, &graph.Delta{Relabels: []graph.Relabel{{V: 1, L: 6}}})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("torn append error = %v, want ErrInjected", err)
	}
	if !ff.Torn {
		t.Fatal("fault did not fire")
	}
	// The failed append rolled back; the same epoch must now succeed.
	if err := l.Append(2, &graph.Delta{Relabels: []graph.Relabel{{V: 1, L: 7}}}); err != nil {
		t.Fatalf("append after rollback: %v", err)
	}
	l.Close()

	// Recovery sees a clean two-record log — no torn tail, label 7 wins.
	_, rec, err := Open(Options{Dir: dir}, testGraph())
	if err != nil {
		t.Fatal(err)
	}
	if rec.TornTail {
		t.Fatal("rollback left a torn tail for recovery to truncate")
	}
	if rec.Epoch != 2 || rec.Graph.Label(1) != 7 {
		t.Fatalf("recovered epoch %d label(1)=%d, want 2/7", rec.Epoch, rec.Graph.Label(1))
	}
}

func TestShortFsyncRollsBack(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		Dir:  dir,
		Sync: SyncAlways,
		OpenFile: func(path string) (File, error) {
			return NewFaultFile(path, FaultSpec{FailSyncAt: 2})
		},
	}
	l, _, err := Open(opts, testGraph())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, &graph.Delta{Relabels: []graph.Relabel{{V: 0, L: 5}}}); err != nil {
		t.Fatal(err)
	}
	err = l.Append(2, &graph.Delta{Relabels: []graph.Relabel{{V: 2, L: 6}}})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("short-fsync append error = %v, want ErrInjected", err)
	}
	// The record was fully written but not durably acknowledged; rollback
	// keeps disk and acknowledgment in agreement (epoch 2 is NOT on disk).
	l.Close()
	_, rec, err := Open(Options{Dir: dir}, testGraph())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Epoch != 1 {
		t.Fatalf("recovered epoch %d after failed fsync, want 1 (unacked batch must not survive)", rec.Epoch)
	}
}

func TestStatsCounters(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, Sync: SyncAlways, CheckpointEvery: 2}, testGraph())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	cur, epoch := appendSequence(t, l, testGraph(), 0, 4, rng)
	if _, err := l.MaybeCheckpoint(cur, epoch); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Appends != 4 {
		t.Errorf("Appends = %d, want 4", st.Appends)
	}
	if st.Fsyncs < 4 {
		t.Errorf("Fsyncs = %d, want >= 4 under SyncAlways", st.Fsyncs)
	}
	if st.Bytes <= 0 {
		t.Errorf("Bytes = %d, want > 0", st.Bytes)
	}
	if st.Checkpoints != 1 {
		t.Errorf("Checkpoints = %d, want 1", st.Checkpoints)
	}
	if st.LastEpoch != 4 {
		t.Errorf("LastEpoch = %d, want 4", st.LastEpoch)
	}
	l.Close()
}

func TestCorruptTailHelper(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir}, testGraph())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	appendSequence(t, l, testGraph(), 0, 3, rng)
	l.Close()
	segs, err := listSegmentFiles(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v (%v)", segs, err)
	}
	if err := CorruptTail(segs[0].path, 0, true); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(Options{Dir: dir}, testGraph())
	if err != nil {
		t.Fatal(err)
	}
	if !rec.TornTail || rec.Epoch != 2 {
		t.Fatalf("bit-flipped tail: torn=%v epoch=%d, want torn at epoch 2", rec.TornTail, rec.Epoch)
	}
}

func TestCheckpointEpochValidation(t *testing.T) {
	l, _, err := Open(Options{Dir: t.TempDir()}, testGraph())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Checkpoint(testGraph(), 5); err == nil {
		t.Fatal("checkpoint ahead of the log tail succeeded, want error")
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
		ok   bool
	}{
		{"always", SyncAlways, true},
		{"interval", SyncInterval, true},
		{"none", SyncNone, true},
		{"sometimes", 0, false},
		{"", 0, false},
	} {
		got, err := ParseSyncPolicy(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
}

func TestLargeRecordRejected(t *testing.T) {
	l, _, err := Open(Options{Dir: t.TempDir()}, testGraph())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// A delta whose encoding exceeds maxRecordLen must be rejected before
	// any bytes are written.
	huge := &graph.Delta{Insert: make([]graph.Edge, maxRecordLen/8)}
	for i := range huge.Insert {
		huge.Insert[i] = graph.Edge{U: 1 << 31, V: 1 << 30}
	}
	if err := l.Append(1, huge); err == nil {
		t.Fatal("oversized record accepted")
	}
	if st := l.Stats(); st.Appends != 0 || st.Bytes != 0 {
		t.Fatalf("oversized record leaked into counters: %+v", st)
	}
}

func TestCloseIdempotent(t *testing.T) {
	l, _, err := Open(Options{Dir: t.TempDir(), Sync: SyncInterval}, testGraph())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, &graph.Delta{}); err == nil {
		t.Fatal("append on closed log succeeded")
	}
}

func TestOpenMissingDirCreates(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "b", "wal")
	l, rec, err := Open(Options{Dir: dir}, testGraph())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if rec.Epoch != 0 {
		t.Fatalf("epoch = %d, want 0", rec.Epoch)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("dir not created: %v", err)
	}
}
