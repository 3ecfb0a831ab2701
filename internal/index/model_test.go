package index

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

// refModel is the reference oracle: a flat slice of records plus
// independent sort-and-filter query evaluation. It deliberately shares
// no code with the key encoding — agreement between the two is the
// property under test.
type refModel struct {
	recs []Record
	seq  uint64
}

func (m *refModel) put(r Record) {
	m.seq++
	r.Seq = m.seq
	m.recs = append(m.recs, r)
}

func (m *refModel) lookup(q Query) []Record {
	var out []Record
	for _, r := range m.recs {
		switch q.Class {
		case Point:
			if r.Domain == q.Key {
				out = append(out, r)
			}
		case Prefix:
			if strings.HasPrefix(r.Domain, q.Key) {
				out = append(out, r)
			}
		case Homograph:
			if r.Skeleton == q.Key {
				out = append(out, r)
			}
		case Issuer:
			if r.Issuer == q.Key {
				out = append(out, r)
			}
		case Range:
			u := r.NotBefore.Unix()
			if u >= q.From.Unix() && u <= q.To.Unix() && !q.To.Before(q.From) {
				out = append(out, r)
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		switch q.Class {
		case Prefix:
			if a.Domain != b.Domain {
				return a.Domain < b.Domain
			}
		case Range:
			if a.NotBefore.Unix() != b.NotBefore.Unix() {
				return a.NotBefore.Unix() < b.NotBefore.Unix()
			}
		}
		return a.Seq < b.Seq
	})
	if lim := q.limit(); len(out) > lim {
		out = out[:lim]
	}
	return out
}

// modelDomains mixes plain names, shared prefixes, prefix-of-each-other
// pairs (the prefix-freeness trap), and a homograph cluster.
var modelDomains = []string{
	"a.com", "a.com.evil", "ab.com", "abc.com",
	"example.com", "example.org", "mail.example.com",
	"paypal.com", "pаypal.com", "ρaypal.com", // Cyrillic а, Greek ρ
	"other.net",
}

var modelIssuers = []string{"CN=Alpha CA", "CN=Beta CA", "CN=Gamma CA"}

func randRecord(rng *rand.Rand, i int) Record {
	d := modelDomains[rng.Intn(len(modelDomains))]
	return mkRec(d, modelIssuers[rng.Intn(len(modelIssuers))],
		[]string{"alpha", "bravo"}[rng.Intn(2)], uint64(i),
		testBase.Add(time.Duration(rng.Intn(96))*time.Hour))
}

// modelQueryBattery compares every query class, at several limits,
// between the store and the oracle.
func modelQueryBattery(t *testing.T, label string, ix Index, m *refModel) {
	t.Helper()
	var queries []Query
	for _, d := range append(append([]string{}, modelDomains...), "absent.test") {
		queries = append(queries, PointQuery(d), HomographQuery(d))
	}
	for _, p := range []string{"", "a", "a.com", "example.", "zzz"} {
		queries = append(queries, PrefixQuery(p))
	}
	for _, iss := range modelIssuers {
		queries = append(queries, IssuerQuery(iss))
	}
	queries = append(queries,
		RangeQuery(testBase, testBase.Add(96*time.Hour)),
		RangeQuery(testBase.Add(10*time.Hour), testBase.Add(20*time.Hour)),
		RangeQuery(testBase.Add(20*time.Hour), testBase.Add(10*time.Hour)), // inverted
	)
	for _, q := range queries {
		for _, lim := range []int{0, 1, 3, 1 << 20} {
			q.Limit = lim
			got, err := ix.Lookup(q)
			if err != nil {
				t.Fatalf("%s: %s lookup (limit %d): %v", label, q.Class, lim, err)
			}
			want := m.lookup(q)
			if len(got) != len(want) {
				t.Fatalf("%s: %s %q limit %d: got %d records, want %d",
					label, q.Class, q.Key, lim, len(got), len(want))
			}
			for i := range got {
				g, w := got[i], want[i]
				if g.Domain != w.Domain || g.Skeleton != w.Skeleton || g.Issuer != w.Issuer ||
					g.Log != w.Log || g.LogIndex != w.LogIndex || g.Seq != w.Seq ||
					g.LeafHash != w.LeafHash || g.NotBefore.Unix() != w.NotBefore.Unix() {
					t.Fatalf("%s: %s %q limit %d: record %d mismatch\n got: %+v\nwant: %+v",
						label, q.Class, q.Key, lim, i, g, w)
				}
			}
		}
	}
}

// TestLSMAgainstModel is the property test: random interleavings of
// put / flush / compact / reopen must keep the LSM's answers — for all
// four key spaces and full iteration order — identical to the oracle's.
// The seedN configurations flush every couple of Puts; the memtable_
// configurations never flush on size and, with probability
// 1/probeOneIn, run the query battery right after a Put, so lookups
// meet unsorted memtable tails of many lengths.
func TestLSMAgainstModel(t *testing.T) {
	type config struct {
		name                string
		seed                int64
		flushAt, probeOneIn int
	}
	var configs []config
	for _, seed := range []int64{1, 7, 42, 1337} {
		configs = append(configs, config{fmt.Sprintf("seed%d", seed), seed, 8, 0})
	}
	for _, seed := range []int64{3, 99} {
		configs = append(configs, config{fmt.Sprintf("memtable_seed%d", seed), seed, 1 << 20, 4})
	}
	for _, c := range configs {
		c := c
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(c.seed))
			dir := t.TempDir()
			opts := Options{Dir: dir, FlushAt: c.flushAt, CompactAfter: -1}
			lsm, err := Open(opts)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer func() { lsm.Close() }()
			m := &refModel{}

			const ops = 300
			for i := 0; i < ops; i++ {
				switch r := rng.Intn(100); {
				case r < 80: // put dominates, crossing FlushAt repeatedly
					rec := randRecord(rng, i)
					if err := lsm.Put(rec); err != nil {
						t.Fatalf("op %d: Put: %v", i, err)
					}
					m.put(rec)
					if c.probeOneIn > 0 && rng.Intn(c.probeOneIn) == 0 {
						modelQueryBattery(t, fmt.Sprintf("after op %d", i), lsm, m)
					}
				case r < 88:
					if err := lsm.Flush(); err != nil {
						t.Fatalf("op %d: Flush: %v", i, err)
					}
				case r < 94:
					if err := lsm.Compact(); err != nil {
						t.Fatalf("op %d: Compact: %v", i, err)
					}
				default: // close + reopen: durability is part of the property
					if err := lsm.Close(); err != nil {
						t.Fatalf("op %d: Close: %v", i, err)
					}
					if lsm, err = Open(opts); err != nil {
						t.Fatalf("op %d: reopen: %v", i, err)
					}
				}
				if i%60 == 59 {
					modelQueryBattery(t, "mid-run", lsm, m)
				}
			}
			modelQueryBattery(t, "final", lsm, m)

			// Iterator order: a full unbounded prefix scan is the store's
			// iteration surface; it must equal the sorted reference.
			if st := lsm.Stats(); st.Certs != uint64(len(m.recs)) {
				t.Fatalf("Stats.Certs = %d, want %d", st.Certs, len(m.recs))
			}
		})
	}
}
