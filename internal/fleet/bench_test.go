package fleet

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/ctlog"
	"repro/internal/index"
	"repro/internal/x509cert"
)

// BenchmarkFleetCrawl measures fleet-crawl throughput: four clean
// in-process logs with a shared (deduped) slice, crawled end to end
// through the coordinator — supervised workers, cross-log dedup,
// bounded feed, per-log checkpoints. The entries/s metric counts
// every fetched entry (unique + duplicate) per wall-clock second and
// is recorded in BENCH_4.json by `make bench`.
func BenchmarkFleetCrawl(b *testing.B) {
	const (
		logsN  = 4
		perLog = 200
	)
	shared := ders(b, "shared", perLog/4)
	bases := make([]string, logsN)
	for i := 0; i < logsN; i++ {
		leaves := ders(b, string(rune('a'+i)), perLog-len(shared))
		leaves = append(leaves, shared...)
		bases[i] = serveLog(b, 3000+int64(i), leaves)
	}
	const total = logsN * perLog

	b.ResetTimer()
	delivered := 0
	for i := 0; i < b.N; i++ {
		specs := make([]LogSpec, logsN)
		for j := range specs {
			specs[j] = LogSpec{
				Name:   string(rune('a' + j)),
				Client: fastClient(bases[j], nil),
				Batch:  64,
			}
		}
		coord, err := New(Config{
			Logs:          specs,
			CheckpointDir: b.TempDir(),
			Sleep:         noSleep,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := coord.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if got := res.UniqueEntries + res.DupEntries; got != total {
			b.Fatalf("delivered %d entries, want %d", got, total)
		}
		delivered += total
	}
	b.StopTimer()
	b.ReportMetric(float64(delivered)/b.Elapsed().Seconds(), "entries/s")
}

// BenchmarkFleetCrawlCommit measures the group commit's cost: two
// audited logs sharing a third of their entries, crawled with
// checkpoint and STH dirs, in two variants — "audited" (anchors and
// checkpoints only) and "lsm" (the consumer indexes every unique
// certificate into a real LSM and the Commit hook flushes it, as
// ctmonitor does) — each at a 100 ms and a 1 s commit interval, set
// through the unexported commitEvery seam. entries/s counts every
// fetched entry per second of timed run; commits/op counts the group
// commits that published something (Commit hook calls) per run.
func BenchmarkFleetCrawlCommit(b *testing.B) {
	const perLog = 4500
	shared := ders(b, "commit-shared", perLog/3)
	var bases []string
	for i, name := range []string{"alpha", "bravo"} {
		leaves := append(ders(b, "commit-"+name, perLog-len(shared)), shared...)
		bases = append(bases, serveLog(b, 3100+int64(i), leaves))
	}
	const total = 2 * perLog
	for _, variant := range []string{"audited", "lsm"} {
		for _, every := range []time.Duration{100 * time.Millisecond, time.Second} {
			b.Run(fmt.Sprintf("%s/every=%s", variant, every), func(b *testing.B) {
				delivered, commits := 0, 0
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					dir := b.TempDir()
					var ix *index.LSM
					if variant == "lsm" {
						var err error
						if ix, err = index.Open(index.Options{Dir: filepath.Join(dir, "index")}); err != nil {
							b.Fatal(err)
						}
					}
					cfg := Config{
						CheckpointDir: filepath.Join(dir, "ckpt"),
						Audit:         true,
						STHStoreDir:   filepath.Join(dir, "sth"),
						Sleep:         noSleep,
						Commit: func() error {
							commits++
							if ix != nil {
								return ix.Flush()
							}
							return nil
						},
					}
					for j, name := range []string{"alpha", "bravo"} {
						cfg.Logs = append(cfg.Logs, LogSpec{Name: name, Client: fastClient(bases[j], nil), Batch: 64})
					}
					if ix != nil {
						cfg.HandleSourced = func(log string, e ctlog.Entry) {
							cert, err := x509cert.ParseWithMode(e.DER, x509cert.ParseLenient)
							if err != nil {
								b.Error(err)
								return
							}
							for _, rec := range index.FromCert(log, uint64(e.Index), ctlog.LeafHash(e.DER), cert) {
								if err := ix.Put(rec); err != nil {
									b.Error(err)
								}
							}
						}
					}
					coord, err := New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					coord.commitEvery = every
					b.StartTimer()
					res, err := coord.Run(context.Background())
					b.StopTimer()
					if err != nil {
						b.Fatal(err)
					}
					if got := res.UniqueEntries + res.DupEntries; got != total {
						b.Fatalf("delivered %d entries, want %d", got, total)
					}
					delivered += total
					if ix != nil {
						if err := ix.Close(); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.ReportMetric(float64(delivered)/b.Elapsed().Seconds(), "entries/s")
				b.ReportMetric(float64(commits)/float64(b.N), "commits/op")
			})
		}
	}
}
