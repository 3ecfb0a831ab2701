package index

import (
	"testing"
	"time"

	"repro/internal/uni"
)

// fuzzReader consumes fuzz bytes; exhausted reads return zero so every
// input decodes to SOME operation sequence.
type fuzzReader struct {
	data []byte
	i    int
}

func (r *fuzzReader) byte() byte {
	if r.i >= len(r.data) {
		return 0
	}
	b := r.data[r.i]
	r.i++
	return b
}

// fuzzDomainAlphabet includes ASCII, separators, a NUL (which Put must
// reject identically on both backends), and the confusables the
// homograph space keys on.
var fuzzDomainAlphabet = []rune{
	'a', 'b', 'c', 'x', 'y', 'z', '1', '.', '-', 0,
	'а', 'р', 'о', // Cyrillic a, p, o
	'ρ', 'α', // Greek rho, alpha
}

func (r *fuzzReader) domain() string {
	n := int(r.byte()) % 12
	out := make([]rune, n)
	for i := range out {
		out[i] = fuzzDomainAlphabet[int(r.byte())%len(fuzzDomainAlphabet)]
	}
	return string(out)
}

var fuzzIssuers = []string{"CN=Alpha CA", "CN=Beta CA", "CN=Gamma CA"}

// FuzzIndexLookup is the differential harness: the same put sequence
// (with fuzz-chosen FlushAt, flush and compaction boundaries) goes into
// the LSM and the B+tree baseline, then one fuzz-chosen query runs against
// both. The contract: never panic, never return a record outside the
// queried range, and the two backends agree posting for posting.
func FuzzIndexLookup(f *testing.F) {
	// The first byte picks FlushAt (3 → 4 postings, 80 → 81).
	f.Add([]byte{3, 3, 5, 'a', 'b', 'c', 0, 1, 4, 'a', 10, 2, 0, 3, 'a', 'b', 'c'})
	f.Add([]byte{3, 8, 0, 2, 11, 12, 1, 3, 9, 200, 4, 4, 4, 4})
	f.Add([]byte{3, 1, 2, 10, 11, 2, 0, 0, 0, 3})
	// 16 two-rune records that all stay in the memtable (FlushAt 81,
	// no flush choices), then a prefix scan over every domain.
	mem := []byte{80, 16}
	for i := byte(0); i < 16; i++ {
		mem = append(mem, 2, i*7%9, 10+i%5, i%3, i*13, 2+i%6)
	}
	f.Add(append(mem, 1, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		// FlushAt 1..81 postings: at the top of the range all 16
		// records (80 postings) can stay in the memtable, so lookups
		// meet unsorted tails as well as flushed segments.
		flushAt := 1 + int(r.byte())%81
		lsm, err := Open(Options{Dir: t.TempDir(), FlushAt: flushAt, CompactAfter: -1})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer lsm.Close()
		bt := NewBTree()

		nrec := int(r.byte()) % 17
		for i := 0; i < nrec; i++ {
			d := r.domain()
			rec := Record{
				Domain:    d,
				Skeleton:  uni.Skeleton(d),
				Issuer:    fuzzIssuers[int(r.byte())%len(fuzzIssuers)],
				NotBefore: testBase.Add(time.Duration(r.byte()) * time.Hour),
				Log:       "fuzz",
				LogIndex:  uint64(i),
			}
			err1 := lsm.Put(rec)
			err2 := bt.Put(rec)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("Put divergence for %q: lsm=%v btree=%v", d, err1, err2)
			}
			switch r.byte() % 8 {
			case 0:
				if err := lsm.Flush(); err != nil {
					t.Fatalf("Flush: %v", err)
				}
			case 1:
				if err := lsm.Flush(); err != nil {
					t.Fatalf("Flush: %v", err)
				}
				if err := lsm.Compact(); err != nil {
					t.Fatalf("Compact: %v", err)
				}
			}
		}

		var q Query
		switch r.byte() % 5 {
		case 0:
			q = PointQuery(r.domain())
		case 1:
			q = PrefixQuery(r.domain())
		case 2:
			q = HomographQuery(r.domain())
		case 3:
			q = IssuerQuery(fuzzIssuers[int(r.byte())%len(fuzzIssuers)])
		case 4:
			from := testBase.Add(time.Duration(r.byte()) * time.Hour)
			to := testBase.Add(time.Duration(r.byte()) * time.Hour) // may invert
			q = RangeQuery(from, to)
		}
		if n := r.byte() % 4; n > 0 {
			q.Limit = int(n)
		}

		got, err1 := lsm.Lookup(q)
		want, err2 := bt.Lookup(q)
		if err1 != nil || err2 != nil {
			t.Fatalf("lookup errors: lsm=%v btree=%v", err1, err2)
		}
		if len(got) != len(want) {
			t.Fatalf("%s %q: lsm %d records, btree %d", q.Class, q.Key, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Domain != w.Domain || g.Skeleton != w.Skeleton || g.Issuer != w.Issuer ||
				g.Seq != w.Seq || g.LogIndex != w.LogIndex ||
				g.NotBefore.Unix() != w.NotBefore.Unix() {
				t.Fatalf("%s %q: record %d diverges\n lsm:   %+v\n btree: %+v",
					q.Class, q.Key, i, g, w)
			}
			// Containment: nothing outside the queried window, ever.
			switch q.Class {
			case Point:
				if g.Domain != q.Key {
					t.Fatalf("point %q returned domain %q", q.Key, g.Domain)
				}
			case Prefix:
				if len(g.Domain) < len(q.Key) || g.Domain[:len(q.Key)] != q.Key {
					t.Fatalf("prefix %q returned domain %q", q.Key, g.Domain)
				}
			case Homograph:
				if g.Skeleton != q.Key {
					t.Fatalf("homograph %q returned skeleton %q", q.Key, g.Skeleton)
				}
			case Issuer:
				if g.Issuer != q.Key {
					t.Fatalf("issuer %q returned issuer %q", q.Key, g.Issuer)
				}
			case Range:
				u := g.NotBefore.Unix()
				if u < q.From.Unix() || u > q.To.Unix() {
					t.Fatalf("range [%v,%v] returned notBefore %v", q.From, q.To, g.NotBefore)
				}
			}
		}
		if lim := q.limit(); len(got) > lim {
			t.Fatalf("%s: %d records over limit %d", q.Class, len(got), lim)
		}
	})
}
