package index

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/raceflag"
)

// buildSegmentRef is the reference encoder: the straightforward
// append-based serialization of the USEG v1 layout (payload grown from
// nil, then copied behind the header, bloom and CRC appended). The
// production buildSegment must produce the same bytes.
func buildSegmentRef(keys, vals [][]byte) []byte {
	var data []byte
	for i := range keys {
		data = binary.AppendUvarint(data, uint64(len(keys[i])))
		data = append(data, keys[i]...)
		data = binary.AppendUvarint(data, uint64(len(vals[i])))
		data = append(data, vals[i]...)
	}
	bl := bloom{bits: make([]byte, bloomBytes(len(keys)))}
	for _, k := range keys {
		bl.add(postingPrimary(k))
	}
	buf := make([]byte, segmentHdrLen, segmentHdrLen+len(data)+len(bl.bits)+4)
	copy(buf[0:4], segmentMagic)
	binary.LittleEndian.PutUint16(buf[4:6], segmentVersion)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(keys)))
	binary.LittleEndian.PutUint32(buf[12:16], uint32(len(data)))
	binary.LittleEndian.PutUint32(buf[16:20], uint32(len(bl.bits)))
	buf = append(buf, data...)
	buf = append(buf, bl.bits...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// randPostings returns n postings with unique ascending keys whose
// primaries run up to maxPrimary bytes and whose values run up to
// maxVal bytes.
func randPostings(rng *rand.Rand, n, maxPrimary, maxVal int) (keys, vals [][]byte) {
	spaces := []byte{spaceCert, spaceDomain, spaceSkeleton, spaceIssuer, spaceTime}
	for i := 0; i < n; i++ {
		primary := make([]byte, rng.Intn(maxPrimary+1))
		for j := range primary {
			primary[j] = 'a' + byte(rng.Intn(26))
		}
		keys = append(keys, postingKey(spaces[rng.Intn(len(spaces))], primary, uint64(i+1)))
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	for range keys {
		v := make([]byte, rng.Intn(maxVal+1))
		rng.Read(v)
		vals = append(vals, v)
	}
	return keys, vals
}

// TestBuildSegmentMatchesReference is the encoder golden test: on
// every posting-set shape the single-allocation encoder writes the
// reference encoder's bytes, so USEG v1 files are unchanged, and the
// reference bytes parse back to the same postings.
func TestBuildSegmentMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cases := []struct {
		name                 string
		n, maxPrimary, maxVl int
	}{
		{"empty", 0, 0, 0},
		{"one", 1, 20, 120},
		{"small", 7, 20, 120},
		{"typical", 4100, 40, 200},
		{"long-keys", 64, 20000, 16}, // 3-byte key length varints
		{"large-values", 32, 8, 70000},
		{"empty-values", 50, 10, 0},
	}
	for _, c := range cases {
		for round := 0; round < 3; round++ {
			keys, vals := randPostings(rng, c.n, c.maxPrimary, c.maxVl)
			got := buildSegment(keys, vals)
			want := buildSegmentRef(keys, vals)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s/%d: encoder output diverges from reference (%d vs %d bytes)",
					c.name, round, len(got), len(want))
			}
			seg, err := parseSegment(c.name, want)
			if err != nil {
				t.Fatalf("%s/%d: reference segment does not parse: %v", c.name, round, err)
			}
			if len(seg.keys) != len(keys) {
				t.Fatalf("%s/%d: parsed %d postings, want %d", c.name, round, len(seg.keys), len(keys))
			}
			for i := range keys {
				if !bytes.Equal(seg.keys[i], keys[i]) || !bytes.Equal(seg.vals[i], vals[i]) {
					t.Fatalf("%s/%d: posting %d does not round-trip", c.name, round, i)
				}
			}
		}
	}
}

// TestBuildSegmentAllocs holds the encoder to its one allocation: the
// sealed file buffer.
func TestBuildSegmentAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	keys, vals := randPostings(rand.New(rand.NewSource(1)), 512, 30, 150)
	avg := testing.AllocsPerRun(20, func() {
		if len(buildSegment(keys, vals)) == 0 {
			panic("empty segment")
		}
	})
	if avg > 1 {
		t.Errorf("buildSegment allocs/op = %.1f, budget 1", avg)
	}
}

// TestReferenceSegmentLoads writes a store's postings with the
// reference encoder, as an earlier build of this package would have,
// and checks the current opener serves every record from it.
func TestReferenceSegmentLoads(t *testing.T) {
	recs := seedCorpusRecords()
	var keys, vals [][]byte
	for i := range recs {
		recs[i].Seq = uint64(i + 1)
		val := appendRecord(nil, &recs[i])
		ks, err := postings(&recs[i], val)
		if err != nil {
			t.Fatalf("postings: %v", err)
		}
		for _, k := range ks {
			keys, vals = append(keys, k), append(vals, val)
		}
	}
	sort.Sort(kvRun{keys, vals})
	dir := t.TempDir()
	if err := writeSegment(segmentPath(dir, 0), buildSegmentRef(keys, vals)); err != nil {
		t.Fatalf("writeSegment: %v", err)
	}
	lsm := openTestLSM(t, Options{Dir: dir})
	if st := lsm.Stats(); st.Certs != uint64(len(recs)) || len(st.Damaged) != 0 {
		t.Fatalf("Stats = %+v, want %d certs and nothing damaged", st, len(recs))
	}
	for _, r := range recs {
		got, err := lsm.Lookup(PointQuery(r.Domain))
		if err != nil {
			t.Fatalf("Lookup(%q): %v", r.Domain, err)
		}
		found := false
		for _, g := range got {
			found = found || g.Seq == r.Seq
		}
		if !found {
			t.Fatalf("Lookup(%q) = %+v, missing seq %d", r.Domain, got, r.Seq)
		}
	}
}
