package main

// rq1_lint: the paper's RQ1 measurement path on DER input — parse,
// lint, aggregate — as it would run over certificates pulled from CT.
// Setup generates the 1:1000 paper-scale corpus; the program sees only
// its DER bytes. Each timed pass is pipeline.LintDERs with one worker
// per CPU followed by every aggregation ctscan prints.

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corpus"
	"repro/internal/lint"
	_ "repro/internal/lint/lints" // registers the Unicert lints into lint.Global
	"repro/internal/pipeline"
	"repro/internal/x509cert"
)

// rq1Report holds one pass's aggregation output (what ctscan prints);
// keeping it live stops the compiler from dropping the calls.
type rq1Report struct {
	nc     int
	t1     []corpus.TaxonomyRow
	t2     []corpus.IssuerRow
	t3     map[corpus.VariantStrategy]int
	t11    []corpus.LintRow
	fig2   []corpus.YearRow
	fig3   [3][]int
	fig4   any
	failed int // failed lint findings, summed over certificates
}

func aggregate(m *corpus.Measurement, reg *lint.Registry) rq1Report {
	r := rq1Report{
		nc:   m.NCCount(),
		t1:   m.Table1(reg),
		t2:   m.Table2(0),
		t3:   m.Table3(),
		t11:  m.Table11(25),
		fig2: m.Figure2(),
		fig4: m.Figure4(50),
	}
	r.fig3[0] = m.ValidityCDF(func(i int, e *corpus.Entry) bool { return e.Class == corpus.ClassIDNCert })
	r.fig3[1] = m.ValidityCDF(func(i int, e *corpus.Entry) bool { return e.Class == corpus.ClassOtherUnicert })
	r.fig3[2] = m.ValidityCDF(func(i int, e *corpus.Entry) bool { return m.Noncompliant(i) })
	for _, res := range m.Results {
		for _, f := range res.Findings {
			if f.Status == lint.Fail {
				r.failed++
			}
		}
	}
	return r
}

// tracedLint is the traced mirror of pipeline.LintDERs: the same
// ParseLint + Registry.Run calls across the same number of workers,
// with a span around each call (LintDERs itself is opaque from
// outside). The parse and lint busy times and pipeline.idle_share are
// therefore the mirror's; it hands out work from a counter, not
// LintDERs's channel, and skips its panic recovery.
func tracedLint(tr *tracer, parent uint64, ders [][]byte, reg *lint.Registry, lo lint.Options, workers int) ([]*lint.CertResult, error) {
	out := make([]*lint.CertResult, len(ders))
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		first   error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ders) {
					return
				}
				id, t0 := tr.begin()
				cert, err := x509cert.ParseLint(ders[i], x509cert.ParseLenient)
				tr.end(id, parent, "x509cert.parse", t0)
				if err != nil {
					errOnce.Do(func() { first = fmt.Errorf("certificate %d: %w", i, err) })
					return
				}
				id, t0 = tr.begin()
				out[i] = reg.Run(cert, lo)
				tr.end(id, parent, "lint.run", t0)
			}
		}()
	}
	wg.Wait()
	return out, first
}

func runRQ1(o opts) (*result, error) {
	res := newResult()
	cfg := corpus.DefaultConfig()
	cfg.Seed = o.seed
	c, setup, err := timedSetup(func() (*corpus.Corpus, error) { return corpus.Generate(cfg) }, func(*corpus.Corpus) {})
	if err != nil {
		return nil, err
	}
	res.setE2E("setup_s", setup)
	res.setLayer("corpus.generate_s", setup)
	ders := make([][]byte, len(c.Entries))
	for i, e := range c.Entries {
		ders[i] = e.DER
	}
	n := len(ders)
	reg, lo := lint.Global, lint.Options{}
	workers := runtime.NumCPU()
	pc := pipeline.Config{Workers: workers}

	// The sequential reference every pass must reproduce exactly.
	want := aggregate(corpus.RunLinter(c, reg, lo), reg)
	fmt.Fprintf(stderr, "rq1_lint: %d certs, %d noncompliant, %d failed findings (reference)\n", n, want.nc, want.failed)

	check := func(got rq1Report) {
		switch {
		case got.nc != want.nc:
			res.invalid("noncompliant count %d, reference %d", got.nc, want.nc)
		case got.failed != want.failed:
			res.invalid("failed findings %d, reference %d", got.failed, want.failed)
		case !reflect.DeepEqual(got.t1, want.t1):
			res.invalid("Table 1 rows differ from the sequential reference")
		case !reflect.DeepEqual(got.t2, want.t2):
			res.invalid("Table 2 rows differ from the sequential reference")
		}
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	ctx := context.Background()
	// Warm-up pass: caches (interning tables, pools) fill before timing.
	if _, err := pipeline.LintDERs(ctx, ders, reg, lo, pc); err != nil {
		return nil, err
	}

	var plainWalls, tracedWalls, aggS []float64
	var heapPeaks []float64
	heap := startHeapSampler()
	rt0 := readRuntime()
	start := time.Now()
	passes := 0
	for ; passes < 3 || time.Since(start).Seconds() < o.seconds; passes++ {
		// The traced run alternates the traced mirror with plain
		// LintDERs passes, so trace.overhead_share also covers any
		// difference between the mirror and the program.
		traced := tr != nil && passes%2 == 1
		var ptr *tracer
		if traced {
			ptr = tr
		}
		pid, pt0 := ptr.begin()
		t0 := time.Now()
		var results []*lint.CertResult
		if traced {
			results, err = tracedLint(ptr, pid, ders, reg, lo, workers)
		} else {
			results, err = pipeline.LintDERs(ctx, ders, reg, lo, pc)
		}
		res.attempted += n
		if err != nil {
			res.failed += n
			fmt.Fprintf(stderr, "rq1_lint: pass %d: %v\n", passes, err)
			continue
		}
		at0 := time.Now()
		aid, a0 := ptr.begin()
		got := aggregate(&corpus.Measurement{Corpus: c, Results: results}, reg)
		ptr.end(aid, pid, "corpus.aggregate", a0)
		ptr.end(pid, 0, "pass", pt0)
		wall := time.Since(t0).Seconds()
		aggS = append(aggS, time.Since(at0).Seconds())
		peak := heap.lap()
		if traced {
			tracedWalls = append(tracedWalls, wall)
		} else {
			plainWalls = append(plainWalls, wall)
			heapPeaks = append(heapPeaks, peak)
		}
		check(got)
	}
	rt := readRuntime().sub(rt0)
	heap.close()

	res.setE2E("certs_per_s", float64(n)/median(plainWalls))
	res.setE2E("heap_peak_mb", median(heapPeaks))
	// A batch measurement makes every certificate's result readable at
	// once, when the pass's aggregation returns.
	res.setE2E("queryable_p50_ms", 1e3*median(plainWalls))
	res.setE2E("queryable_p99_ms", 1e3*quantile(append([]float64(nil), plainWalls...), 0.99))
	res.setLayer("corpus.aggregate_s", median(aggS))
	res.setLayer("lint.findings_per_cert", float64(want.failed)/float64(n))
	res.setLayer("runtime.alloc_bytes_per_cert", float64(rt.allocBytes)/float64(passes*n))
	res.setLayer("runtime.gc_cycles", float64(rt.gcCycles)/float64(passes))

	if tr != nil {
		st := tr.analyze()
		k := float64(len(tracedWalls))
		parse, run := st["x509cert.parse"], st["lint.run"]
		res.setLayer("x509cert.parse_busy_s", parse.busy/k)
		res.setLayer("lint.run_busy_s", run.busy/k)
		var wallSum float64
		for _, w := range tracedWalls {
			wallSum += w
		}
		res.setLayer("pipeline.idle_share", 1-(parse.busy+run.busy)/(float64(workers)*wallSum))
		finishTrace(res, tr, o.workload, median(tracedWalls), median(plainWalls),
			tr.reconcileGap("pass", "x509cert.parse", "lint.run", "corpus.aggregate"))
	}
	fmt.Fprintf(stderr, "rq1_lint: %d passes (%d traced), workers=%d\n", passes, len(tracedWalls), workers)
	return res, nil
}
