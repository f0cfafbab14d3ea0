package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"approxmatch/internal/graph"
)

// Checkpoint file (`ckpt-<epoch hex>.ckpt`):
//
//	[4B magic "ACKP"][1B version = 1][8B LE epoch]
//	[8B LE permLen][permLen × uint32 LE internal→external ids]
//	[graph binary format, see FORMATS.md]
//	[4B LE CRC32C over everything above]
//
// The permutation section exists because amatchd relabels vertices by
// degree at load time and the checkpointed CSR is already in internal
// order: re-deriving the relabel from the checkpoint would be the
// identity and would break external-id translation at the API boundary.
// permLen is either 0 (identity) or exactly n.
//
// Checkpoints are written to a .tmp sibling, fsynced, renamed into
// place, and the directory fsynced — a crash mid-checkpoint leaves at
// worst an ignorable .tmp, never a half-visible checkpoint.

const (
	ckptMagic   = "ACKP"
	ckptVersion = 1
)

// Checkpoint writes a checkpoint of g at epoch and prunes segments and
// checkpoints the new one supersedes. The active segment is fsynced
// first so the checkpoint never claims an epoch whose record is not yet
// durable.
func (l *Log) Checkpoint(g *graph.Graph, epoch uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.checkpointLocked(g, epoch)
}

// MaybeCheckpoint writes a checkpoint iff CheckpointEvery records have
// accumulated since the last one. Returns whether one was written.
func (l *Log) MaybeCheckpoint(g *graph.Graph, epoch uint64) (bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.opts.CheckpointEvery <= 0 || l.sinceCkpt < l.opts.CheckpointEvery {
		return false, nil
	}
	return true, l.checkpointLocked(g, epoch)
}

func (l *Log) checkpointLocked(g *graph.Graph, epoch uint64) error {
	if l.closed {
		return fmt.Errorf("wal: checkpoint on closed log")
	}
	if epoch > l.lastEpoch {
		return fmt.Errorf("wal: checkpoint epoch %d ahead of log tail %d", epoch, l.lastEpoch)
	}
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: pre-checkpoint fsync: %w", err)
		}
		l.c.fsyncs.Add(1)
	}
	path := checkpointPath(l.opts.Dir, epoch)
	if err := writeCheckpointFile(l.opts, path, g, epoch); err != nil {
		return err
	}
	l.ckptEpoch = epoch
	l.sinceCkpt = 0
	l.c.checkpoints.Add(1)
	l.pruneLocked(epoch)
	return nil
}

func writeCheckpointFile(opts Options, path string, g *graph.Graph, epoch uint64) error {
	tmp := path + ".tmp"
	f, err := opts.OpenFile(tmp)
	if err != nil {
		return fmt.Errorf("wal: create checkpoint tmp: %w", err)
	}
	// The header and graph stream through the CRC into the file; the graph
	// is never staged whole in memory.
	crc := crc32.New(crcTable)
	w := io.MultiWriter(f, crc)
	var buf bytes.Buffer
	buf.WriteString(ckptMagic)
	buf.WriteByte(ckptVersion)
	var u8 [8]byte
	binary.LittleEndian.PutUint64(u8[:], epoch)
	buf.Write(u8[:])
	perm := g.ExternalTable()
	binary.LittleEndian.PutUint64(u8[:], uint64(len(perm)))
	buf.Write(u8[:])
	for _, v := range perm {
		var u4 [4]byte
		binary.LittleEndian.PutUint32(u4[:], v)
		buf.Write(u4[:])
	}
	if _, err := w.Write(buf.Bytes()); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("wal: write checkpoint header: %w", err)
	}
	if err := graph.WriteBinary(w, g); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("wal: write checkpoint graph: %w", err)
	}
	var u4 [4]byte
	binary.LittleEndian.PutUint32(u4[:], crc.Sum32())
	if _, err := f.Write(u4[:]); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("wal: write checkpoint crc: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("wal: checkpoint fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("wal: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("wal: checkpoint rename: %w", err)
	}
	syncDir(opts.Dir)
	return nil
}

// readCheckpointFile loads and verifies a checkpoint. Any failure is a
// hard error: checkpoints become visible only via rename-after-fsync, so
// a corrupt one signals real damage, not a crash artifact.
func readCheckpointFile(path string, lim graph.LoaderLimits) (*graph.Graph, uint64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	const hdrLen = 4 + 1 + 8 + 8
	if len(b) < hdrLen+4 {
		return nil, 0, fmt.Errorf("wal: checkpoint %s truncated (%d bytes)", filepath.Base(path), len(b))
	}
	body, trailer := b[:len(b)-4], b[len(b)-4:]
	if got, want := crc32.Checksum(body, crcTable), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, 0, fmt.Errorf("wal: checkpoint %s crc mismatch (got %08x want %08x)", filepath.Base(path), got, want)
	}
	if string(body[:4]) != ckptMagic {
		return nil, 0, fmt.Errorf("wal: bad checkpoint magic %q", body[:4])
	}
	if body[4] != ckptVersion {
		return nil, 0, fmt.Errorf("wal: unsupported checkpoint version %d", body[4])
	}
	epoch := binary.LittleEndian.Uint64(body[5:])
	permLen := binary.LittleEndian.Uint64(body[13:])
	rest := body[hdrLen:]
	if permLen > uint64(len(rest)/4) {
		return nil, 0, fmt.Errorf("wal: checkpoint perm table %d entries exceeds file size", permLen)
	}
	var perm []graph.VertexID
	if permLen > 0 {
		perm = make([]graph.VertexID, permLen)
		for i := range perm {
			perm[i] = binary.LittleEndian.Uint32(rest[i*4:])
		}
		rest = rest[permLen*4:]
	}
	g, err := graph.ReadBinaryLimits(bytes.NewReader(rest), lim)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: checkpoint graph: %w", err)
	}
	if perm != nil {
		if err := g.SetExternalTable(perm); err != nil {
			return nil, 0, fmt.Errorf("wal: checkpoint perm table: %w", err)
		}
	}
	return g, epoch, nil
}

// pruneLocked removes checkpoints older than the newest and segments
// whose every record is covered by the checkpoint at epoch. A segment is
// removable only when a later segment exists whose firstEpoch is within
// the checkpoint (so the later segment carries the tail) and it is not
// the active segment. Prune failures are ignored: stale files cost disk,
// not correctness.
func (l *Log) pruneLocked(epoch uint64) {
	segs, err := listSegmentFiles(l.opts.Dir)
	if err == nil {
		for i := 0; i+1 < len(segs); i++ {
			if segs[i+1].firstEpoch <= epoch+1 && segs[i].path != l.path {
				os.Remove(segs[i].path)
			}
		}
	}
	ckpts, err := listCheckpointFiles(l.opts.Dir)
	if err == nil {
		for _, c := range ckpts {
			if c.epoch < epoch {
				os.Remove(c.path)
			}
		}
	}
}

type segFile struct {
	path       string
	firstEpoch uint64 // parsed from the file name
}

type ckptFile struct {
	path  string
	epoch uint64
}

// listSegmentFiles returns wal-*.seg files sorted by the first epoch
// encoded in their names (zero-padded hex, so lexicographic order
// agrees — but parse anyway and sort numerically).
func listSegmentFiles(dir string) ([]segFile, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segFile
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		hex := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg")
		fe, err := strconv.ParseUint(hex, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("wal: malformed segment name %q", name)
		}
		segs = append(segs, segFile{path: filepath.Join(dir, name), firstEpoch: fe})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstEpoch < segs[j].firstEpoch })
	return segs, nil
}

// listCheckpointFiles returns ckpt-*.ckpt files sorted by epoch
// ascending; *.tmp crash leftovers are removed as a side effect.
func listCheckpointFiles(dir string) ([]ckptFile, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var ckpts []ckptFile
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if !strings.HasPrefix(name, "ckpt-") || !strings.HasSuffix(name, ".ckpt") {
			continue
		}
		hex := strings.TrimSuffix(strings.TrimPrefix(name, "ckpt-"), ".ckpt")
		ep, err := strconv.ParseUint(hex, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("wal: malformed checkpoint name %q", name)
		}
		ckpts = append(ckpts, ckptFile{path: filepath.Join(dir, name), epoch: ep})
	}
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i].epoch < ckpts[j].epoch })
	return ckpts, nil
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable. Best-effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}
