package monitor

// Crash-safe checkpoint persistence. A crawl's resume point (PR 1's
// in-memory checkpoint) survives process death by being written
// through a CheckpointStore after every ingested batch. The file
// implementation is torn-write-proof twice over: each record is
// CRC-sealed and versioned, and every save goes through the classic
// temp-write → fsync → rename → dir-fsync dance, so at any kill point
// the path holds either the previous complete record or the new
// complete record — never a blend. A reader that finds anything else
// (short file, bad magic, bad CRC, unknown version) reports a clean
// "no checkpoint", which merely costs a refetch, instead of resuming
// from a wrong index, which would silently lose log entries — the
// exact monitor blind spot the paper's §6.1 threat model exploits.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"time"

	"repro/internal/durable"
)

// Checkpoint is a crawl resume point.
type Checkpoint struct {
	// NextIndex is the next log index to fetch; every entry below it
	// has been handled (indexed, skipped, or rejected).
	NextIndex int
	// TreeSize is the tree size of the last STH the crawl saw.
	TreeSize int
	// UpdatedAt is when the checkpoint was taken.
	UpdatedAt time.Time
}

// CheckpointStore persists crawl progress across process restarts.
type CheckpointStore interface {
	// Load returns the stored checkpoint. ok is false when no usable
	// checkpoint exists — including a torn or corrupted record, which
	// is indistinguishable from "never saved" on purpose. The error is
	// reserved for I/O failures on an existing, readable path.
	Load() (cp Checkpoint, ok bool, err error)
	// Save durably replaces the stored checkpoint.
	Save(cp Checkpoint) error
}

// Checkpoint record wire format (fixed 36 bytes, little-endian):
//
//	offset size field
//	     0    4 magic "UCKP"
//	     4    2 version (1)
//	     6    2 reserved (0)
//	     8    8 next index (uint64)
//	    16    8 tree size (uint64)
//	    24    8 updated-at (int64, unix nanoseconds)
//	    32    4 CRC-32 (IEEE) over bytes [0,32)
const (
	checkpointMagic   = "UCKP"
	checkpointVersion = 1
	checkpointLen     = 36
)

// MarshalBinary encodes the fixed-size sealed record.
func (cp Checkpoint) MarshalBinary() ([]byte, error) {
	if cp.NextIndex < 0 || cp.TreeSize < 0 {
		return nil, fmt.Errorf("monitor: negative checkpoint fields (next=%d tree=%d)", cp.NextIndex, cp.TreeSize)
	}
	buf := make([]byte, checkpointLen)
	copy(buf[0:4], checkpointMagic)
	binary.LittleEndian.PutUint16(buf[4:6], checkpointVersion)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(cp.NextIndex))
	binary.LittleEndian.PutUint64(buf[16:24], uint64(cp.TreeSize))
	var ns int64
	if !cp.UpdatedAt.IsZero() {
		ns = cp.UpdatedAt.UnixNano()
	}
	binary.LittleEndian.PutUint64(buf[24:32], uint64(ns))
	binary.LittleEndian.PutUint32(buf[32:36], crc32.ChecksumIEEE(buf[:32]))
	return buf, nil
}

// UnmarshalBinary decodes a sealed record. Any deviation — length,
// magic, version, CRC — is an error; callers decide whether that means
// "no checkpoint" (FileCheckpointStore.Load does).
func (cp *Checkpoint) UnmarshalBinary(buf []byte) error {
	if len(buf) != checkpointLen {
		return fmt.Errorf("monitor: checkpoint record is %d bytes, want %d", len(buf), checkpointLen)
	}
	if string(buf[0:4]) != checkpointMagic {
		return errors.New("monitor: bad checkpoint magic")
	}
	if got := crc32.ChecksumIEEE(buf[:32]); got != binary.LittleEndian.Uint32(buf[32:36]) {
		return errors.New("monitor: checkpoint CRC mismatch")
	}
	if v := binary.LittleEndian.Uint16(buf[4:6]); v != checkpointVersion {
		return fmt.Errorf("monitor: unknown checkpoint version %d", v)
	}
	next := binary.LittleEndian.Uint64(buf[8:16])
	tree := binary.LittleEndian.Uint64(buf[16:24])
	const maxInt = int(^uint(0) >> 1)
	if next > uint64(maxInt) || tree > uint64(maxInt) {
		return errors.New("monitor: checkpoint fields overflow int")
	}
	cp.NextIndex = int(next)
	cp.TreeSize = int(tree)
	if ns := int64(binary.LittleEndian.Uint64(buf[24:32])); ns != 0 {
		cp.UpdatedAt = time.Unix(0, ns)
	} else {
		cp.UpdatedAt = time.Time{}
	}
	return nil
}

// FileCheckpointStore keeps the checkpoint in one file at Path.
type FileCheckpointStore struct {
	Path string
}

// Load implements CheckpointStore. A missing file, or any record that
// fails validation (torn write, truncation, bit rot, foreign format),
// is a clean "no checkpoint".
func (s *FileCheckpointStore) Load() (Checkpoint, bool, error) {
	buf, err := os.ReadFile(s.Path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return Checkpoint{}, false, nil
		}
		return Checkpoint{}, false, fmt.Errorf("monitor: reading checkpoint %s: %w", s.Path, err)
	}
	var cp Checkpoint
	if err := cp.UnmarshalBinary(buf); err != nil {
		// Unreadable records never resume a crawl from a guessed index.
		return Checkpoint{}, false, nil
	}
	return cp, true, nil
}

// Save implements CheckpointStore with full write-ahead durability
// (durable.WriteFile): the record lands in a temp file, is fsynced,
// then renamed over Path, and the directory is fsynced so the rename
// itself survives a crash.
func (s *FileCheckpointStore) Save(cp Checkpoint) error {
	buf, err := cp.MarshalBinary()
	if err != nil {
		return err
	}
	if err := durable.WriteFile(s.Path, buf); err != nil {
		return fmt.Errorf("monitor: saving checkpoint: %w", err)
	}
	return nil
}

// LockedFileCheckpointStore is a FileCheckpointStore whose path is
// guarded by an advisory lock, so two workers accidentally configured
// with the same checkpoint path fail fast at acquisition time instead
// of silently interleaving saves — each would persist its own crawl
// position over the other's and a restart would resume both from a
// blend of wrong indexes. Acquire with AcquireFileCheckpointStore and
// release with Close.
type LockedFileCheckpointStore struct {
	FileCheckpointStore
	lock *lockHandle
}

// AcquireFileCheckpointStore opens a file checkpoint store at path
// after taking an advisory lock on path+".lock". If another holder —
// in this process or any other — already owns the lock, it returns an
// error immediately (ErrCheckpointLocked wrapped with the path).
func AcquireFileCheckpointStore(path string) (*LockedFileCheckpointStore, error) {
	h, err := acquireLock(path + ".lock")
	if err != nil {
		return nil, err
	}
	return &LockedFileCheckpointStore{
		FileCheckpointStore: FileCheckpointStore{Path: path},
		lock:                h,
	}, nil
}

// Close releases the advisory lock. The checkpoint file itself is left
// in place — it is the durable artifact; only the exclusivity goes.
func (s *LockedFileCheckpointStore) Close() error {
	if s == nil || s.lock == nil {
		return nil
	}
	err := s.lock.release()
	s.lock = nil
	return err
}

// ErrCheckpointLocked reports that another store holds the checkpoint
// path's advisory lock.
var ErrCheckpointLocked = errors.New("monitor: checkpoint path locked by another holder")
