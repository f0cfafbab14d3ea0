package wal

import (
	"errors"
	"fmt"
	"os"
)

// ErrInjected marks failures produced by FaultFile; tests can
// errors.Is against it.
var ErrInjected = errors.New("wal: injected fault")

// FaultSpec is a deterministic fault schedule for one file: the
// differential suites derive the ordinals from a seeded RNG so every
// failure is replayable from its seed.
//
// Ordinals are 1-based and count calls on that file. Zero disables the
// class.
type FaultSpec struct {
	// TearWriteAt makes the Nth Write call tear: only TearKeepBytes of
	// the buffer reach the file and the call returns ErrInjected. This
	// models a crash mid-write.
	TearWriteAt   int
	TearKeepBytes int
	// FailSyncAt makes the Nth Sync call return ErrInjected without
	// syncing — a short fsync.
	FailSyncAt int
}

// FaultFile wraps a real file with a FaultSpec. It satisfies wal.File,
// so it plugs into Options.OpenFile underneath an unmodified Log.
type FaultFile struct {
	f      *os.File
	spec   FaultSpec
	writes int
	syncs  int

	// Torn reports whether the torn write fired.
	Torn bool
	// SyncsFailed counts injected fsync failures.
	SyncsFailed int
}

// NewFaultFile creates path (like os.Create) wrapped with spec.
func NewFaultFile(path string, spec FaultSpec) (*FaultFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &FaultFile{f: f, spec: spec}, nil
}

func (ff *FaultFile) Write(p []byte) (int, error) {
	ff.writes++
	if ff.spec.TearWriteAt > 0 && ff.writes == ff.spec.TearWriteAt {
		keep := ff.spec.TearKeepBytes
		if keep > len(p) {
			keep = len(p)
		}
		n, err := ff.f.Write(p[:keep])
		if err == nil {
			err = fmt.Errorf("torn write after %d/%d bytes: %w", n, len(p), ErrInjected)
		}
		ff.Torn = true
		return n, err
	}
	return ff.f.Write(p)
}

func (ff *FaultFile) Sync() error {
	ff.syncs++
	if ff.spec.FailSyncAt > 0 && ff.syncs == ff.spec.FailSyncAt {
		ff.SyncsFailed++
		return fmt.Errorf("short fsync: %w", ErrInjected)
	}
	return ff.f.Sync()
}

func (ff *FaultFile) Truncate(size int64) error { return ff.f.Truncate(size) }

func (ff *FaultFile) Seek(offset int64, whence int) (int64, error) {
	return ff.f.Seek(offset, whence)
}

func (ff *FaultFile) Close() error { return ff.f.Close() }

// CorruptTail simulates what a crash can leave behind in the newest
// segment without going through a Log: cut truncates the file by that
// many bytes (a torn append), and if flip is true the last byte is
// additionally bit-flipped (a corrupt-but-full-length tail). Used by
// the crash-restart suites to damage an on-disk WAL between runs.
func CorruptTail(path string, cut int, flip bool) error {
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	size := st.Size() - int64(cut)
	if size < 0 {
		size = 0
	}
	if err := os.Truncate(path, size); err != nil {
		return err
	}
	if !flip || size == 0 {
		return nil
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], size-1); err != nil {
		return err
	}
	b[0] ^= 0xff
	_, err = f.WriteAt(b[:], size-1)
	return err
}
