package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSettleMatchesSort drives the memtable with random batches of
// appends between settles — tails of every length from 1 up, landing
// anywhere in the prefix — and checks each settled table against a
// full sort of everything appended so far.
func TestSettleMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		var m memtable
		var all []string
		seq := uint64(0)
		for batch := 0; batch < 20; batch++ {
			for n := rng.Intn(40) + 1; n > 0; n-- {
				seq++
				k := postingKey(spaceDomain, []byte(fmt.Sprintf("h%03d", rng.Intn(200))), seq)
				m.add(k, k)
				all = append(all, string(k))
			}
			m.settle()
			if !m.settled() {
				t.Fatalf("trial %d batch %d: settle left an unsorted tail", trial, batch)
			}
			sort.Strings(all)
			for i := range all {
				if string(m.keys[i]) != all[i] || !bytes.Equal(m.vals[i], m.keys[i]) {
					t.Fatalf("trial %d batch %d: position %d holds %q, want %q",
						trial, batch, i, m.keys[i], all[i])
				}
			}
			if rng.Intn(8) == 0 {
				m.reset()
				all = all[:0]
			}
		}
	}
}

// TestLSMReadYourWritesConcurrent runs writers and readers against one
// store under the production policy (default FlushAt, background
// compaction): every record whose Put returned before a lookup started
// must be found by that lookup, whether it sits in the memtable's
// unsorted tail, a fresh segment, or a compaction's output.
func TestLSMReadYourWritesConcurrent(t *testing.T) {
	lsm, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const writers, readers, perWriter = 3, 3, 3000
	domain := func(w, i int) string { return fmt.Sprintf("w%d-%05d.example", w, i) }
	var done [writers]atomic.Int64 // records writer w has finished putting

	var wwg, rwg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			dst := make([]Record, 0, 4)
			for {
				select {
				case <-stop:
					return
				default:
				}
				w := rng.Intn(writers)
				n := int(done[w].Load())
				if n == 0 {
					continue
				}
				i := n - 1 // the newest record, most likely still unsorted
				if rng.Intn(2) == 0 {
					i = rng.Intn(n)
				}
				want := domain(w, i)
				var err error
				dst, err = lsm.LookupAppend(PointQuery(want), dst[:0])
				if err != nil || len(dst) != 1 || dst[0].Domain != want {
					t.Errorf("reader %d: Lookup(%q) after its Put returned = %v, %v", r, want, dst, err)
					return
				}
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			for i := 0; i < perWriter; i++ {
				if err := lsm.Put(mkRec(domain(w, i), "CN=Alpha CA", "alpha", uint64(i), testBase)); err != nil {
					t.Errorf("writer %d: Put: %v", w, err)
					return
				}
				done[w].Store(int64(i + 1))
			}
		}(w)
	}
	wwg.Wait()
	close(stop)
	rwg.Wait()
	if err := lsm.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := lsm.Stats()
	if st.Certs != writers*perWriter || st.Flushes == 0 || st.Compactions == 0 {
		t.Fatalf("Stats = %+v, want %d certs after at least one flush and compaction",
			st, writers*perWriter)
	}
}
