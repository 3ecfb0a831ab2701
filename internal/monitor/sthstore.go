package monitor

// Crash-safe persistence for the audited crawl's trust anchor. The
// checkpoint remembers *where* a crawl stopped; the STH store
// remembers *what it proved*: the last verified tree head (size +
// root) together with the compact-range right-edge hashes that let a
// restarted crawl keep appending to its mirror of the log's Merkle
// tree. A resume therefore re-anchors consistency auditing on a
// verified head — a log that equivocates across our restart is caught
// by the first get-sth of the new process. The record uses the same
// discipline as CheckpointStore: CRC-sealed, versioned, temp-write →
// fsync → rename → dir-fsync, and anything torn reads back as a clean
// "no record".

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math/bits"
	"os"
	"time"

	"repro/internal/ctlog"
	"repro/internal/durable"
)

// VerifiedSTH is the persisted trust anchor: a tree head whose every
// leaf the monitor fetched and verified, plus the compact-range
// hashes needed to extend the mirror past it.
type VerifiedSTH struct {
	// Size and Root identify the verified prefix [0, Size) of the log.
	Size int
	Root ctlog.Hash
	// Hashes is the compact-range right edge (one hash per set bit of
	// Size, largest subtree first), as produced by CompactTree.Hashes.
	Hashes []ctlog.Hash
	// UpdatedAt is when the anchor was taken.
	UpdatedAt time.Time
}

// STHStore persists the verified tree head across process restarts.
type STHStore interface {
	// Load returns the stored anchor. ok is false when no usable record
	// exists — including a torn or corrupted one, on purpose. The error
	// is reserved for I/O failures on an existing, readable path.
	Load() (v VerifiedSTH, ok bool, err error)
	// Save durably replaces the stored anchor.
	Save(v VerifiedSTH) error
}

// STH record wire format (little-endian, variable length):
//
//	offset size field
//	     0    4 magic "USTH"
//	     4    2 version (1)
//	     6    2 hash count k (= popcount of size)
//	     8    8 tree size (uint64)
//	    16    8 updated-at (int64, unix nanoseconds)
//	    24   32 root hash
//	    56 32×k compact-range hashes, largest subtree first
//	  56+32k  4 CRC-32 (IEEE) over all preceding bytes
const (
	sthMagic     = "USTH"
	sthVersion   = 1
	sthHeaderLen = 56
)

// MarshalBinary encodes the sealed record.
func (v VerifiedSTH) MarshalBinary() ([]byte, error) {
	if v.Size < 0 {
		return nil, fmt.Errorf("monitor: negative verified STH size %d", v.Size)
	}
	if len(v.Hashes) != bits.OnesCount64(uint64(v.Size)) {
		return nil, fmt.Errorf("monitor: verified STH carries %d hashes for size %d", len(v.Hashes), v.Size)
	}
	buf := make([]byte, sthHeaderLen+32*len(v.Hashes)+4)
	copy(buf[0:4], sthMagic)
	binary.LittleEndian.PutUint16(buf[4:6], sthVersion)
	binary.LittleEndian.PutUint16(buf[6:8], uint16(len(v.Hashes)))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(v.Size))
	var ns int64
	if !v.UpdatedAt.IsZero() {
		ns = v.UpdatedAt.UnixNano()
	}
	binary.LittleEndian.PutUint64(buf[16:24], uint64(ns))
	copy(buf[24:56], v.Root[:])
	for i, h := range v.Hashes {
		copy(buf[sthHeaderLen+32*i:], h[:])
	}
	n := len(buf) - 4
	binary.LittleEndian.PutUint32(buf[n:], crc32.ChecksumIEEE(buf[:n]))
	return buf, nil
}

// UnmarshalBinary decodes a sealed record. Any deviation — length,
// magic, version, CRC, hash count, or a root that does not fold from
// the hashes — is an error; FileSTHStore.Load maps that to "no
// record" so a damaged anchor costs a refetch, never a false trust
// root.
func (v *VerifiedSTH) UnmarshalBinary(buf []byte) error {
	if len(buf) < sthHeaderLen+4 {
		return fmt.Errorf("monitor: STH record is %d bytes, want at least %d", len(buf), sthHeaderLen+4)
	}
	if string(buf[0:4]) != sthMagic {
		return errors.New("monitor: bad STH record magic")
	}
	k := int(binary.LittleEndian.Uint16(buf[6:8]))
	if len(buf) != sthHeaderLen+32*k+4 {
		return fmt.Errorf("monitor: STH record is %d bytes, want %d for %d hashes", len(buf), sthHeaderLen+32*k+4, k)
	}
	n := len(buf) - 4
	if got := crc32.ChecksumIEEE(buf[:n]); got != binary.LittleEndian.Uint32(buf[n:]) {
		return errors.New("monitor: STH record CRC mismatch")
	}
	if ver := binary.LittleEndian.Uint16(buf[4:6]); ver != sthVersion {
		return fmt.Errorf("monitor: unknown STH record version %d", ver)
	}
	size := binary.LittleEndian.Uint64(buf[8:16])
	const maxInt = int(^uint(0) >> 1)
	if size > uint64(maxInt) {
		return errors.New("monitor: STH record size overflows int")
	}
	if bits.OnesCount64(size) != k {
		return fmt.Errorf("monitor: STH record hash count %d does not match size %d", k, size)
	}
	v.Size = int(size)
	if ns := int64(binary.LittleEndian.Uint64(buf[16:24])); ns != 0 {
		v.UpdatedAt = time.Unix(0, ns)
	} else {
		v.UpdatedAt = time.Time{}
	}
	copy(v.Root[:], buf[24:56])
	v.Hashes = make([]ctlog.Hash, k)
	for i := range v.Hashes {
		copy(v.Hashes[i][:], buf[sthHeaderLen+32*i:])
	}
	// The root must fold from the hashes — a record whose fields
	// disagree internally is as untrustworthy as a torn one.
	t, err := ctlog.NewCompactTree(v.Size, v.Hashes)
	if err != nil {
		return err
	}
	if t.Root() != v.Root {
		return errors.New("monitor: STH record root does not fold from its hashes")
	}
	return nil
}

// FileSTHStore keeps the verified tree head in one file at Path.
type FileSTHStore struct {
	Path string
}

// Load implements STHStore. A missing file, or any record failing
// validation, is a clean "no anchor".
func (s *FileSTHStore) Load() (VerifiedSTH, bool, error) {
	buf, err := os.ReadFile(s.Path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return VerifiedSTH{}, false, nil
		}
		return VerifiedSTH{}, false, fmt.Errorf("monitor: reading STH store %s: %w", s.Path, err)
	}
	var v VerifiedSTH
	if err := v.UnmarshalBinary(buf); err != nil {
		// A damaged anchor never becomes a trust root.
		return VerifiedSTH{}, false, nil
	}
	return v, true, nil
}

// Save implements STHStore with the temp-write → fsync → rename →
// dir-fsync discipline of durable.WriteFile, so any kill point leaves
// either the previous complete anchor or the new one.
func (s *FileSTHStore) Save(v VerifiedSTH) error {
	buf, err := v.MarshalBinary()
	if err != nil {
		return err
	}
	if err := durable.WriteFile(s.Path, buf); err != nil {
		return fmt.Errorf("monitor: saving STH record: %w", err)
	}
	return nil
}
