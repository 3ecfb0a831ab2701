package index

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/durable"
)

// Segment file wire format ("USEG" v1, little-endian):
//
//	offset size field
//	     0    4 magic "USEG"
//	     4    2 version (1)
//	     6    2 reserved (0)
//	     8    4 posting count
//	    12    4 data length (bytes)
//	    16    4 bloom length (bytes)
//	    20  ... data: count × (uvarint klen, key, uvarint vlen, val),
//	            keys strictly ascending
//	    ...  ... bloom filter bits (bloomLen bytes)
//	  end-4    4 CRC-32 (IEEE) over everything before it
//
// Like the checkpoint record, a segment is torn-write-proof twice
// over: the CRC seals the whole file, and every write goes through
// temp → fsync → rename → dir-fsync, so a crash leaves either the
// complete file or no file. Unlike the checkpoint, a segment that
// fails validation is NOT silently treated as absent: a damaged
// segment means indexed certificates are missing, and a monitor that
// silently serves a partial index is exactly the paper's §6.1
// misleading monitor. Damaged files are renamed *.damaged, counted,
// journaled, and reported in Stats so the operator re-syncs.
const (
	segmentMagic   = "USEG"
	segmentVersion = 1
	segmentHdrLen  = 20
	segmentSuffix  = ".useg"
)

// segment is one loaded immutable sorted run.
type segment struct {
	path  string
	keys  [][]byte
	vals  [][]byte
	bloom bloom
	certs uint64 // postings in the cert space
}

// buildSegment serializes sorted postings (keys strictly ascending)
// into the wire format. It sizes the file exactly up front and encodes
// header, payload, bloom and CRC in place: one allocation, no copy.
func buildSegment(keys, vals [][]byte) []byte {
	dataLen := 0
	for i := range keys {
		dataLen += uvarintLen(len(keys[i])) + len(keys[i]) + uvarintLen(len(vals[i])) + len(vals[i])
	}
	bloomLen := bloomBytes(len(keys))
	buf := make([]byte, segmentHdrLen+dataLen+bloomLen+4)
	copy(buf[0:4], segmentMagic)
	binary.LittleEndian.PutUint16(buf[4:6], segmentVersion)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(keys)))
	binary.LittleEndian.PutUint32(buf[12:16], uint32(dataLen))
	binary.LittleEndian.PutUint32(buf[16:20], uint32(bloomLen))
	off := segmentHdrLen
	for i := range keys {
		off += binary.PutUvarint(buf[off:], uint64(len(keys[i])))
		off += copy(buf[off:], keys[i])
		off += binary.PutUvarint(buf[off:], uint64(len(vals[i])))
		off += copy(buf[off:], vals[i])
	}
	bl := bloom{bits: buf[off : off+bloomLen]}
	for _, k := range keys {
		bl.add(postingPrimary(k))
	}
	off += bloomLen
	binary.LittleEndian.PutUint32(buf[off:], crc32.ChecksumIEEE(buf[:off]))
	return buf
}

// uvarintLen is the encoded size of n as a uvarint.
func uvarintLen(n int) int { return (bits.Len64(uint64(n)|1) + 6) / 7 }

// postingPrimary slices <space> 0x00 <primary> out of a posting key —
// the unit bloom filters and exact scans work in.
func postingPrimary(key []byte) []byte {
	if len(key) < 11 {
		return key
	}
	return key[:len(key)-9] // strip 0x00 separator + 8-byte seq
}

// parseSegment validates and decodes a segment file's bytes. Any
// deviation — magic, version, lengths, CRC, unsorted keys — is an
// error; the caller quarantines the file.
func parseSegment(path string, buf []byte) (*segment, error) {
	if len(buf) < segmentHdrLen+4 {
		return nil, fmt.Errorf("index: segment %s: %d bytes, shorter than header", filepath.Base(path), len(buf))
	}
	if string(buf[0:4]) != segmentMagic {
		return nil, fmt.Errorf("index: segment %s: bad magic", filepath.Base(path))
	}
	if v := binary.LittleEndian.Uint16(buf[4:6]); v != segmentVersion {
		return nil, fmt.Errorf("index: segment %s: unknown version %d", filepath.Base(path), v)
	}
	body, tail := buf[:len(buf)-4], buf[len(buf)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("index: segment %s: CRC mismatch", filepath.Base(path))
	}
	count := int(binary.LittleEndian.Uint32(buf[8:12]))
	dataLen := int(binary.LittleEndian.Uint32(buf[12:16]))
	bloomLen := int(binary.LittleEndian.Uint32(buf[16:20]))
	if segmentHdrLen+dataLen+bloomLen+4 != len(buf) {
		return nil, fmt.Errorf("index: segment %s: length fields disagree with file size", filepath.Base(path))
	}
	s := &segment{
		path:  path,
		keys:  make([][]byte, 0, count),
		vals:  make([][]byte, 0, count),
		bloom: bloom{bits: buf[segmentHdrLen+dataLen : segmentHdrLen+dataLen+bloomLen]},
	}
	p := buf[segmentHdrLen : segmentHdrLen+dataLen]
	var prev []byte
	for i := 0; i < count; i++ {
		key, rest, err := takeBytes(p)
		if err != nil {
			return nil, fmt.Errorf("index: segment %s: posting %d: %v", filepath.Base(path), i, err)
		}
		val, rest, err := takeBytes(rest)
		if err != nil {
			return nil, fmt.Errorf("index: segment %s: posting %d: %v", filepath.Base(path), i, err)
		}
		if prev != nil && compareKeys(prev, key) >= 0 {
			return nil, fmt.Errorf("index: segment %s: posting %d out of order", filepath.Base(path), i)
		}
		prev = key
		s.keys = append(s.keys, key)
		s.vals = append(s.vals, val)
		if len(key) > 0 && key[0] == spaceCert {
			s.certs++
		}
		p = rest
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("index: segment %s: %d trailing data bytes", filepath.Base(path), len(p))
	}
	return s, nil
}

func takeBytes(p []byte) ([]byte, []byte, error) {
	n, w := binary.Uvarint(p)
	if w <= 0 || n > uint64(len(p)-w) {
		return nil, nil, fmt.Errorf("truncated posting")
	}
	return p[w : w+int(n)], p[w+int(n):], nil
}

// writeSegment durably publishes buf at path through
// durable.WriteFile, the same commit the checkpoint store uses.
func writeSegment(path string, buf []byte) error {
	if err := durable.WriteFile(path, buf); err != nil {
		return fmt.Errorf("index: publishing segment: %w", err)
	}
	return nil
}

// segmentFiles lists the committed segment files in dir, oldest first
// (the numeric naming makes lexical order creation order), and removes
// leftover temp files from crashed flushes.
func segmentFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if strings.Contains(name, segmentSuffix+".tmp") {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if strings.HasSuffix(name, segmentSuffix) {
			out = append(out, filepath.Join(dir, name))
		}
	}
	sort.Strings(out)
	return out, nil
}

// segmentID parses the numeric id out of seg-%012d.useg, or -1.
func segmentID(path string) int64 {
	name := filepath.Base(path)
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, segmentSuffix) {
		return -1
	}
	var id int64
	if _, err := fmt.Sscanf(name, "seg-%012d"+segmentSuffix, &id); err != nil {
		return -1
	}
	return id
}

func segmentPath(dir string, id int64) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%012d%s", id, segmentSuffix))
}

// bloom is a fixed double-hash bloom filter (k=4) over posting
// primaries; it lets point lookups skip segments that cannot contain
// the queried domain/skeleton/issuer.
type bloom struct {
	bits []byte
}

const bloomHashes = 4

// bloomBytes sizes a filter at ~10 bits per distinct element (≈1%
// false positives at k=4); n is the posting count, an overestimate of
// distinct primaries, which only makes the filter more accurate.
func bloomBytes(n int) int {
	return max((n*10+7)/8, 8)
}

// bloomHash is FNV-1a 64 split into two 32-bit halves for double
// hashing: h_i = h1 + i*h2.
func bloomHash(p []byte) (uint32, uint32) {
	var h uint64 = 14695981039346656037
	for _, b := range p {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return uint32(h >> 32), uint32(h) | 1
}

func (b bloom) add(p []byte) {
	h1, h2 := bloomHash(p)
	m := uint32(len(b.bits) * 8)
	for i := uint32(0); i < bloomHashes; i++ {
		bit := (h1 + i*h2) % m
		b.bits[bit/8] |= 1 << (bit % 8)
	}
}

func (b bloom) mayContain(p []byte) bool {
	if len(b.bits) == 0 {
		return true
	}
	h1, h2 := bloomHash(p)
	m := uint32(len(b.bits) * 8)
	for i := uint32(0); i < bloomHashes; i++ {
		bit := (h1 + i*h2) % m
		if b.bits[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}
