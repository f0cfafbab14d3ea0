package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"approxmatch/internal/graph"
)

// Recovery reports what Open reconstructed.
type Recovery struct {
	// Graph is the recovered graph (checkpoint or seed, plus replayed
	// tail). Internal ids and the external-id table match the original
	// process's.
	Graph *graph.Graph
	// Epoch is the snapshot epoch the recovered graph corresponds to;
	// the SnapshotStore must resume from it.
	Epoch uint64
	// CheckpointEpoch is the epoch of the checkpoint used, 0 if the
	// seed graph was the base.
	CheckpointEpoch uint64
	// FromCheckpoint reports whether a checkpoint bounded the replay.
	FromCheckpoint bool
	// Replayed is the number of tail records applied.
	Replayed int
	// TornTail reports whether a torn tail was truncated.
	TornTail bool
	// SeedLoaded reports whether recovery had a parsed seed graph: always
	// when Open is handed one, and for OpenSeed whenever it called
	// Seed.Load.
	SeedLoaded bool
	// Elapsed is the wall time recovery took.
	Elapsed time.Duration
}

// Open recovers the log directory and returns a Log positioned to accept
// the next epoch. seed is the process's freshly loaded graph (already
// relabeled); it is the replay base when no checkpoint exists.
//
// Failure semantics follow the write path's guarantees:
//
//   - A short or checksum-failing record in the LAST segment is a torn
//     tail — the only corruption a crash can legally produce — and is
//     truncated away.
//   - The same damage in any earlier segment, a CRC-valid record that
//     fails to decode or apply, or an epoch gap, cannot come from a
//     crash. Open refuses rather than silently serving a wrong graph.
func Open(opts Options, seed *graph.Graph) (*Log, *Recovery, error) {
	start := time.Now()
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, nil, fmt.Errorf("wal: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: create dir: %w", err)
	}
	l := &Log{opts: opts}
	rec := &Recovery{SeedLoaded: seed != nil}

	ckpts, err := listCheckpointFiles(opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	base := seed
	var baseEpoch uint64
	if len(ckpts) > 0 {
		newest := ckpts[len(ckpts)-1]
		g, ep, err := readCheckpointFile(newest.path, opts.Limits)
		if err != nil {
			return nil, nil, err
		}
		if ep != newest.epoch {
			return nil, nil, fmt.Errorf("wal: checkpoint %s claims epoch %d", filepath.Base(newest.path), ep)
		}
		if seed != nil && seed.NumVertices() != g.NumVertices() {
			return nil, nil, fmt.Errorf("wal: checkpoint has %d vertices, seed graph %d — wrong WAL dir for this graph",
				g.NumVertices(), seed.NumVertices())
		}
		base, baseEpoch = g, ep
		rec.FromCheckpoint = true
		rec.CheckpointEpoch = ep
	}
	if base == nil {
		return nil, nil, fmt.Errorf("wal: no seed graph and no checkpoint in %s", opts.Dir)
	}

	segs, err := listSegmentFiles(opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	cur, curEpoch := base, baseEpoch
	for i, s := range segs {
		last := i == len(segs)-1
		// A segment wholly covered by the checkpoint (the next segment
		// starts at or before the first epoch we need) carries nothing.
		if !last && segs[i+1].firstEpoch <= baseEpoch+1 {
			continue
		}
		g, ep, replayed, torn, err := replaySegment(s, last, cur, curEpoch, l)
		if err != nil {
			return nil, nil, err
		}
		cur, curEpoch = g, ep
		rec.Replayed += replayed
		if torn {
			rec.TornTail = true
			break
		}
	}

	l.lastEpoch = curEpoch
	l.ckptEpoch = baseEpoch
	l.sinceCkpt = int(curEpoch - baseEpoch)
	l.c.lastEpoch.Store(curEpoch)
	l.c.replayed.Store(int64(rec.Replayed))
	rec.Graph = cur
	rec.Epoch = curEpoch
	rec.Elapsed = time.Since(start)
	l.c.recoveryNanos.Store(rec.Elapsed.Nanoseconds())
	l.startSyncLoop()
	return l, rec, nil
}

// replaySegment applies one segment's records on top of (cur, curEpoch).
// For the last segment, torn damage truncates the file at the damaged
// record's boundary; for earlier segments it is a hard error.
func replaySegment(s segFile, last bool, cur *graph.Graph, curEpoch uint64, l *Log) (*graph.Graph, uint64, int, bool, error) {
	b, err := os.ReadFile(s.path)
	if err != nil {
		return nil, 0, 0, false, fmt.Errorf("wal: read segment: %w", err)
	}
	name := filepath.Base(s.path)
	fe, err := parseSegmentHeader(b)
	if err != nil || fe != s.firstEpoch {
		if !last {
			if err == nil {
				err = fmt.Errorf("wal: segment %s header epoch %d does not match name", name, fe)
			}
			return nil, 0, 0, false, err
		}
		// A torn segment header can only happen on the newest segment:
		// the file was created but the crash landed inside the header
		// write. It holds no records; discard it whole.
		if rmErr := os.Remove(s.path); rmErr != nil {
			return nil, 0, 0, false, fmt.Errorf("wal: discard torn segment %s: %w", name, rmErr)
		}
		l.c.tornTails.Add(1)
		return cur, curEpoch, 0, true, nil
	}

	chainStarted := false
	replayed := 0
	off := segHeaderLen
	for off < len(b) {
		torn := func(why string) (*graph.Graph, uint64, int, bool, error) {
			if !last {
				return nil, 0, 0, false, fmt.Errorf("wal: mid-log corruption in %s at offset %d: %s", name, off, why)
			}
			trunc := int64(off)
			if trunc == segHeaderLen {
				// No surviving records: drop the file so a post-recovery
				// segment named for the same first epoch cannot collide.
				if err := os.Remove(s.path); err != nil {
					return nil, 0, 0, false, fmt.Errorf("wal: discard torn segment %s: %w", name, err)
				}
			} else if err := os.Truncate(s.path, trunc); err != nil {
				return nil, 0, 0, false, fmt.Errorf("wal: truncate torn tail of %s: %w", name, err)
			}
			l.c.tornTails.Add(1)
			return cur, curEpoch, replayed, true, nil
		}
		rem := b[off:]
		if len(rem) < recHeaderLen {
			return torn("short record header")
		}
		payloadLen := int(binary.LittleEndian.Uint32(rem))
		wantCRC := binary.LittleEndian.Uint32(rem[4:])
		if payloadLen < 8 || payloadLen > maxRecordLen {
			return torn(fmt.Sprintf("implausible record length %d", payloadLen))
		}
		if len(rem)-recHeaderLen < payloadLen {
			return torn("short record payload")
		}
		payload := rem[recHeaderLen : recHeaderLen+payloadLen]
		if got := crc32.Checksum(payload, crcTable); got != wantCRC {
			return torn(fmt.Sprintf("crc mismatch (got %08x want %08x)", got, wantCRC))
		}
		// From here on the record is checksum-valid: damage is semantic,
		// not torn, and is always refused.
		epoch, d, err := decodeRecordPayload(payload)
		if err != nil {
			return nil, 0, 0, false, fmt.Errorf("wal: %s offset %d: %w", name, off, err)
		}
		switch {
		case !chainStarted && epoch <= curEpoch:
			// Pre-checkpoint record in a partially covered segment.
		case epoch == curEpoch+1:
			ng, _, err := graph.ApplyDelta(cur, d)
			if err != nil {
				return nil, 0, 0, false, fmt.Errorf("wal: %s epoch %d replay: %w", name, epoch, err)
			}
			cur, curEpoch = ng, epoch
			chainStarted = true
			replayed++
		default:
			return nil, 0, 0, false, fmt.Errorf("wal: %s offset %d: epoch %d breaks chain at %d (replaying a stale or duplicated log?)",
				name, off, epoch, curEpoch)
		}
		off += recHeaderLen + payloadLen
	}
	if off == segHeaderLen && last {
		// Header-only segment (crash between rotation and first append):
		// nothing durable inside; drop it to free its name.
		if err := os.Remove(s.path); err != nil {
			return nil, 0, 0, false, fmt.Errorf("wal: discard empty segment %s: %w", name, err)
		}
	}
	return cur, curEpoch, replayed, false, nil
}
