package wal

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"

	"approxmatch/internal/graph"
)

// Seed fingerprint (`seed.sha256`): the 32 raw bytes of the SHA-256 of the
// text seed file that recovery last parsed and checked against this
// directory. It is written only after a checkpoint is durable, through a
// .tmp sibling, fsync and rename, and is ignored unless it is whole. Equal
// bytes parse to an equal graph, whose vertex count already passed Open's
// checkpoint check, so a matching fingerprint lets a restart skip the
// parse and start from the checkpoint alone.
const seedFingerprintFile = "seed.sha256"

// Seed is the text graph a WAL directory grows from, as OpenSeed reads it.
type Seed interface {
	// Fingerprint returns the SHA-256 of the seed's current bytes.
	Fingerprint() ([sha256.Size]byte, error)
	// Load parses the seed graph, relabeled as Open expects it, and returns
	// it with the SHA-256 of the bytes it parsed.
	Load() (*graph.Graph, [sha256.Size]byte, error)
}

// OpenSeed is Open for a seed that has not been parsed yet. When dir holds
// a checkpoint and a recorded fingerprint equal to seed's, OpenSeed
// recovers with Open(opts, nil) and never loads the seed. Otherwise it
// loads the seed once and recovers with Open(opts, g), accepting or
// refusing exactly as Open does; then, when CheckpointEvery > 0, it
// checkpoints the recovered epoch (unless recovery started from a
// checkpoint) and records the parsed bytes' fingerprint. With
// CheckpointEvery <= 0 it is Load followed by Open and writes nothing.
// Recovery.Elapsed is Open's own, so it never includes the seed load or
// the base checkpoint.
func OpenSeed(opts Options, seed Seed) (*Log, *Recovery, error) {
	if opts.CheckpointEvery > 0 {
		vouched, err := seedVouched(opts.Dir, seed)
		if err != nil {
			return nil, nil, err
		}
		if vouched {
			return Open(opts, nil)
		}
	}
	g, parsed, err := seed.Load()
	if err != nil {
		return nil, nil, err
	}
	l, rec, err := Open(opts, g)
	if err != nil || opts.CheckpointEvery <= 0 {
		return l, rec, err
	}
	if !rec.FromCheckpoint {
		if err := l.Checkpoint(rec.Graph, rec.Epoch); err != nil {
			l.Close()
			return nil, nil, err
		}
	}
	if err := writeSeedFingerprint(opts.Dir, parsed); err != nil {
		l.Close()
		return nil, nil, err
	}
	return l, rec, nil
}

// seedVouched reports whether dir holds a checkpoint and a whole recorded
// fingerprint equal to seed's. A directory that cannot vouch — no
// checkpoint, or a fingerprint file that is missing, unreadable or not 32
// bytes — says no without hashing the seed.
func seedVouched(dir string, seed Seed) (bool, error) {
	ckpts, err := listCheckpointFiles(dir)
	if err != nil || len(ckpts) == 0 {
		return false, nil
	}
	recorded, err := os.ReadFile(filepath.Join(dir, seedFingerprintFile))
	if err != nil || len(recorded) != sha256.Size {
		return false, nil
	}
	fp, err := seed.Fingerprint()
	if err != nil {
		return false, err
	}
	return bytes.Equal(recorded, fp[:]), nil
}

// writeSeedFingerprint records fp as dir's seed fingerprint: .tmp sibling,
// fsync, rename, directory fsync. A crash leaves the old file or the new
// one whole, or a .tmp that the next listCheckpointFiles removes.
func writeSeedFingerprint(dir string, fp [sha256.Size]byte) error {
	path := filepath.Join(dir, seedFingerprintFile)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: create seed fingerprint tmp: %w", err)
	}
	if _, err := f.Write(fp[:]); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: write seed fingerprint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: seed fingerprint fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: seed fingerprint close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: seed fingerprint rename: %w", err)
	}
	syncDir(dir)
	return nil
}
