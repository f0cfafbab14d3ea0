// Package wal is the durability floor under live ingest: a segmented,
// CRC32C-checksummed, length-prefixed write-ahead log of accepted delta
// batches, plus periodic CSR checkpoints that bound replay to the tail.
//
// The contract with the server (see docs/INTERNALS.md) is write-ahead in
// the strict sense: a batch's record is appended — and, under the
// `always` sync policy, fsynced — before the epoch that contains it is
// published to readers. Recovery (Open) inverts that: checkpoint, then
// tail replay with torn-tail truncation, reconstructs exactly the
// published prefix. OpenSeed is the restart path of a process whose seed
// is a text file: a directory that holds a checkpoint and the fingerprint
// of the seed's bytes recovers without parsing it.
package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"approxmatch/internal/graph"
)

// SyncPolicy selects when appended records are forced to stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acknowledged batch
	// survives power loss, not just process death.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background ticker (Options.SyncEvery).
	// Process death loses nothing (writes are unbuffered, so they live
	// in the page cache); power loss can lose up to one interval.
	SyncInterval
	// SyncNone never fsyncs explicitly; durability is whatever the OS
	// provides. Process death still loses nothing.
	SyncNone
)

// ParseSyncPolicy maps the -wal-sync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval or none)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// File is the slice of *os.File the log needs. The indirection exists so
// tests can interpose FaultFile (torn writes, failed fsyncs) underneath
// an otherwise unmodified Log.
type File interface {
	io.Writer
	io.Seeker
	Truncate(size int64) error
	Sync() error
	Close() error
}

// Options configures a Log. The zero value of every field gets a sane
// default from withDefaults.
type Options struct {
	// Dir is the WAL directory (segments + checkpoints). Required.
	Dir string
	// Sync is the append durability policy.
	Sync SyncPolicy
	// SyncEvery is the background fsync period under SyncInterval.
	SyncEvery time.Duration
	// SegmentBytes rotates the active segment once it would exceed this
	// size (a segment always holds at least one record).
	SegmentBytes int64
	// CheckpointEvery writes a CSR checkpoint after this many records
	// since the last one. <= 0 disables automatic checkpoints.
	CheckpointEvery int
	// Limits guards checkpoint loading against hostile or corrupt
	// files, same as the graph binary loader.
	Limits graph.LoaderLimits
	// OpenFile creates/opens a file for writing. Nil means os.Create.
	// Test seam for fault injection.
	OpenFile func(path string) (File, error)
}

func (o Options) withDefaults() Options {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.OpenFile == nil {
		o.OpenFile = func(path string) (File, error) { return os.Create(path) }
	}
	return o
}

// Stats is a point-in-time snapshot of the log's durability counters,
// surfaced on /metrics.
type Stats struct {
	Appends             int64
	Fsyncs              int64
	Bytes               int64
	Checkpoints         int64
	ReplayedRecords     int64
	TornTailTruncations int64
	RecoverySeconds     float64
	LastEpoch           uint64
}

type counters struct {
	appends       atomic.Int64
	fsyncs        atomic.Int64
	bytes         atomic.Int64
	checkpoints   atomic.Int64
	replayed      atomic.Int64
	tornTails     atomic.Int64
	recoveryNanos atomic.Int64
	lastEpoch     atomic.Uint64
}

// Log is an append-only delta log. One writer (the ingest path) appends;
// Stats may be read concurrently.
type Log struct {
	opts Options

	mu        sync.Mutex
	f         File   // active segment, nil until the first append after open
	path      string // active segment path
	size      int64  // bytes written to the active segment
	records   int    // records in the active segment
	lastEpoch uint64 // epoch of the newest appended or recovered record
	ckptEpoch uint64 // epoch of the newest checkpoint on disk
	sinceCkpt int    // records appended since the last checkpoint
	broken    error  // sticky: a failed append could not be rolled back
	closed    bool

	c counters

	stopSync chan struct{}
	syncWG   sync.WaitGroup
}

func segmentPath(dir string, firstEpoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.seg", firstEpoch))
}

func checkpointPath(dir string, epoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%016x.ckpt", epoch))
}

// LastEpoch reports the epoch of the newest record the log holds.
func (l *Log) LastEpoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastEpoch
}

// Stats snapshots the durability counters.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:             l.c.appends.Load(),
		Fsyncs:              l.c.fsyncs.Load(),
		Bytes:               l.c.bytes.Load(),
		Checkpoints:         l.c.checkpoints.Load(),
		ReplayedRecords:     l.c.replayed.Load(),
		TornTailTruncations: l.c.tornTails.Load(),
		RecoverySeconds:     float64(l.c.recoveryNanos.Load()) / 1e9,
		LastEpoch:           l.c.lastEpoch.Load(),
	}
}

// Append logs the delta that produces epoch. Epochs must arrive in
// strict +1 order — the caller holds the snapshot store's writer lock,
// so this is an invariant check, not a synchronization point. On any
// write or sync failure the segment is truncated back to the previous
// record boundary, so an unacknowledged batch leaves no partial record
// for recovery to trip over.
func (l *Log) Append(epoch uint64, d *graph.Delta) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: append on closed log")
	}
	if l.broken != nil {
		return fmt.Errorf("wal: log wedged by earlier failure: %w", l.broken)
	}
	if epoch != l.lastEpoch+1 {
		return fmt.Errorf("wal: append epoch %d out of order (last %d)", epoch, l.lastEpoch)
	}
	rec := appendRecord(nil, epoch, d)
	if len(rec)-recHeaderLen > maxRecordLen {
		return fmt.Errorf("wal: record payload %d bytes exceeds max %d", len(rec)-recHeaderLen, maxRecordLen)
	}
	if err := l.rotateLocked(epoch, int64(len(rec))); err != nil {
		return err
	}
	pre := l.size
	n, err := l.f.Write(rec)
	if err != nil {
		l.rollbackLocked(pre, err)
		return fmt.Errorf("wal: append write (%d/%d bytes): %w", n, len(rec), err)
	}
	l.size += int64(len(rec))
	if l.opts.Sync == SyncAlways {
		if err := l.f.Sync(); err != nil {
			// The record may or may not have reached disk; roll it back
			// so the in-process state ("not acknowledged") and the
			// on-disk state agree.
			l.rollbackLocked(pre, err)
			return fmt.Errorf("wal: append fsync: %w", err)
		}
		l.c.fsyncs.Add(1)
	}
	l.records++
	l.lastEpoch = epoch
	l.sinceCkpt++
	l.c.appends.Add(1)
	l.c.bytes.Add(int64(len(rec)))
	l.c.lastEpoch.Store(epoch)
	return nil
}

// rollbackLocked truncates the active segment back to pre bytes after a
// failed append and seeks the write offset back with it (Truncate alone
// leaves the offset past the cut, which would zero-fill a hole under the
// next record). If either step fails the log is wedged: further appends
// error out rather than risk interleaving good records after a torn one.
func (l *Log) rollbackLocked(pre int64, cause error) {
	if err := l.f.Truncate(pre); err != nil {
		l.broken = fmt.Errorf("rollback truncate after %v: %w", cause, err)
		return
	}
	if _, err := l.f.Seek(pre, io.SeekStart); err != nil {
		l.broken = fmt.Errorf("rollback seek after %v: %w", cause, err)
		return
	}
	l.size = pre
}

// rotateLocked ensures an active segment with room for recLen more
// bytes, creating or rotating as needed. A fresh segment's first record
// is always admitted even if it alone exceeds SegmentBytes.
func (l *Log) rotateLocked(nextEpoch uint64, recLen int64) error {
	if l.f != nil && l.records > 0 && l.size+recLen > l.opts.SegmentBytes {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: pre-rotation fsync: %w", err)
		}
		l.c.fsyncs.Add(1)
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("wal: close rotated segment: %w", err)
		}
		l.f = nil
	}
	if l.f != nil {
		return nil
	}
	path := segmentPath(l.opts.Dir, nextEpoch)
	f, err := l.opts.OpenFile(path)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	hdr := appendSegmentHeader(nil, nextEpoch)
	if n, err := f.Write(hdr); err != nil {
		// A torn header makes this file a valid torn tail (recovery
		// truncates it); try to leave nothing behind regardless.
		_ = f.Truncate(0)
		_ = f.Close()
		return fmt.Errorf("wal: write segment header (%d/%d bytes): %w", n, len(hdr), err)
	}
	l.f = f
	l.path = path
	l.size = int64(len(hdr))
	l.records = 0
	l.c.bytes.Add(int64(len(hdr)))
	return nil
}

// startSyncLoop launches the SyncInterval background fsync goroutine.
func (l *Log) startSyncLoop() {
	if l.opts.Sync != SyncInterval {
		return
	}
	l.stopSync = make(chan struct{})
	l.syncWG.Add(1)
	go func() {
		defer l.syncWG.Done()
		t := time.NewTicker(l.opts.SyncEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				l.mu.Lock()
				if l.f != nil && l.broken == nil && !l.closed {
					if err := l.f.Sync(); err == nil {
						l.c.fsyncs.Add(1)
					}
				}
				l.mu.Unlock()
			case <-l.stopSync:
				return
			}
		}
	}()
}

// Close syncs and closes the active segment and stops the background
// sync loop. The log must not be used afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	stop := l.stopSync
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		l.syncWG.Wait()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	var first error
	if err := l.f.Sync(); err != nil {
		first = err
	} else {
		l.c.fsyncs.Add(1)
	}
	if err := l.f.Close(); err != nil && first == nil {
		first = err
	}
	l.f = nil
	return first
}
