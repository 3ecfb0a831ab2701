package ctlog

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"sync"
	"testing"
	"time"

	"repro/internal/x509cert"
)

// The T6 write-throughput grid, run by `make bench` and recorded into
// BENCH_7.json:
//
//	BenchmarkWriteBaseline  Add: DER parse + one SCT signature per entry
//	BenchmarkWritePerEntry  AddParsed: pre-parsed, one SCT signature per entry
//	BenchmarkWriteBatched   Batcher at DefaultBatchSize: one seal
//	                        signature per 256-leaf subtree
//
// All three report certs/s so benchjson derives per-cert costs; the
// spread between PerEntry and Batched is the price of the per-entry
// ECDSA operation that batch sealing amortizes away.
//
// The read-side proof grid, also run by `make bench`, serves the three
// Merkle calls behind get-sth, get-sth-consistency and
// get-proof-by-hash from logs of 2^10, 2^15 and 2^20 entries:
//
//	BenchmarkLogProveSTH          Log.STH: root of the whole tree + signature
//	BenchmarkLogProveConsistency  Log.ProveConsistency(m, n) at a ragged m
//	BenchmarkLogProveInclusion    Log.ProveInclusion at a ragged index
//
// With stored subtree levels each stays within O(log^2 n) hashes, so
// the 2^20 row costs a small multiple of the 2^10 row, not 1024 times.

const benchCorpusSize = 256

var (
	benchCorpusOnce sync.Once
	benchCorpusDERs [][]byte
)

// benchCorpus builds a deterministic set of distinct leaf
// certificates once, outside any timed region. One key signs all of
// them — the write path under test never touches the issuing key, so
// key diversity would only slow corpus construction.
func benchCorpus(b *testing.B) [][]byte {
	b.Helper()
	benchCorpusOnce.Do(func() {
		key, err := x509cert.GenerateKey(77)
		if err != nil {
			return
		}
		ders := make([][]byte, 0, benchCorpusSize)
		for i := 0; i < benchCorpusSize; i++ {
			host := "host" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + ".bench.test"
			tpl := &x509cert.Template{
				SerialNumber: big.NewInt(int64(1000 + i)),
				Issuer:       x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDCommonName, "Bench CA")),
				Subject:      x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDCommonName, host)),
				NotBefore:    time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC),
				NotAfter:     time.Date(2025, 4, 1, 0, 0, 0, 0, time.UTC),
				SAN:          []x509cert.GeneralName{x509cert.DNSName(host)},
			}
			der, err := x509cert.Build(tpl, key, key)
			if err != nil {
				return
			}
			ders = append(ders, der)
		}
		benchCorpusDERs = ders
	})
	if len(benchCorpusDERs) != benchCorpusSize {
		b.Fatal("bench corpus construction failed")
	}
	return benchCorpusDERs
}

func benchLog(b *testing.B) *Log {
	b.Helper()
	log, err := NewLog(7)
	if err != nil {
		b.Fatal(err)
	}
	return log
}

func reportCertsPerSec(b *testing.B) {
	b.ReportMetric(float64(b.N)*1e9/float64(b.Elapsed().Nanoseconds()), "certs/s")
}

func BenchmarkWriteBaseline(b *testing.B) {
	ders := benchCorpus(b)
	log := benchLog(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := log.Add(ders[i%len(ders)]); err != nil {
			b.Fatal(err)
		}
	}
	reportCertsPerSec(b)
}

func BenchmarkWritePerEntry(b *testing.B) {
	ders := benchCorpus(b)
	log := benchLog(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := log.AddParsed(ders[i%len(ders)], false); err != nil {
			b.Fatal(err)
		}
	}
	reportCertsPerSec(b)
}

func BenchmarkWriteBatched(b *testing.B) {
	ders := benchCorpus(b)
	batcher := &Batcher{Log: benchLog(b)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := batcher.AddParsed(ders[i%len(ders)], false); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := batcher.Flush(); err != nil {
		b.Fatal(err)
	}
	reportCertsPerSec(b)
}

var benchProveSizes = []int{1 << 10, 1 << 15, 1 << 20}

// benchProveLogs caches one log per size; benchmarks run one at a
// time, so it needs no lock.
var benchProveLogs = map[int]*Log{}

// benchProveLog returns a log of n entries, built once per process.
// Entries are 8-byte stand-ins appended in sealed batches: the proof
// calls never look at entry contents, and real certificates or a
// signature per entry would make the 2^20 log slow and large to build.
func benchProveLog(b *testing.B, n int) *Log {
	b.Helper()
	if log, ok := benchProveLogs[n]; ok {
		return log
	}
	log := benchLog(b)
	const batch = 4096
	for first := 0; first < n; first += batch {
		k := min(batch, n-first)
		ders := make([][]byte, k)
		for i := range ders {
			ders[i] = binary.BigEndian.AppendUint64(nil, uint64(first+i))
		}
		if _, err := log.AddBatchParsed(ders, make([]bool, k)); err != nil {
			b.Fatal(err)
		}
	}
	benchProveLogs[n] = log
	return log
}

func benchProve(b *testing.B, prove func(log *Log, n int) error) {
	for _, n := range benchProveSizes {
		b.Run(fmt.Sprintf("leaves=%d", n), func(b *testing.B) {
			log := benchProveLog(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := prove(log, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLogProveSTH(b *testing.B) {
	benchProve(b, func(log *Log, _ int) error {
		_, err := log.STH()
		return err
	})
}

func BenchmarkLogProveConsistency(b *testing.B) {
	benchProve(b, func(log *Log, n int) error {
		_, err := log.ProveConsistency(n/2+n/3, n-1)
		return err
	})
}

func BenchmarkLogProveInclusion(b *testing.B) {
	benchProve(b, func(log *Log, n int) error {
		_, err := log.ProveInclusion(n/2 + n/3)
		return err
	})
}
