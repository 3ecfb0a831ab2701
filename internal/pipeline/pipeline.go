// Package pipeline is the parallel streaming measurement pipeline for
// the RQ1 hot path: generate → build/parse → lint → aggregate over the
// synthetic CT corpus. Generation and linting are fused into one
// per-slot step: a worker takes a slot index off the bounded queue of
// parallelIndexed, the package's one goroutine fan-out, derives the
// slot's certificates from its (seed, index) RNG stream (the
// build/parse step rides inside corpus.Generator.GenerateSlot), and
// lints them in place. Measure writes each slot's output into its
// pre-assigned cell and assembles the corpus in slot order;
// MeasureStream folds each slot and recycles it; LintDERs runs the same
// fan-out over caller-supplied DER. Fusing the stages keeps a
// certificate on one core from DER build through lint findings, so no
// cross-stage channel ever carries parsed-certificate payloads.
//
// Determinism: because every slot's bytes depend only on (cfg.Seed,
// slot index) and collection is by slot index, the output is
// byte-identical for any worker count, including the sequential
// corpus.Generate path.
//
// Observability: per-stage progress lives in internal/obs instruments
// (pipeline_generated_total, pipeline_linted_total, pipeline_in_flight,
// per-slot generate/lint latency histograms), registered on Config.Obs
// so a -metrics-addr scrape sees a running measurement live. Stats
// snapshots are derived from the same instruments. The accounting
// budget is at most one atomic add per certificate — counters are
// bumped once per slot, not per certificate.
package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/lint"
	"repro/internal/obs"
	"repro/internal/x509cert"
)

// Config sizes the pipeline.
type Config struct {
	// Workers is the number of fused generate→lint workers; 0 or
	// negative means runtime.NumCPU().
	Workers int
	// Obs receives the pipeline instruments. Nil means a private
	// throwaway registry: Stats still works, nothing is exposed.
	Obs *obs.Registry
	// Journal, when non-nil, receives a pipeline.quarantine event for
	// every generate/lint panic contained to one item.
	Journal *obs.Journal
	// Flight, when non-nil, records quarantines into the "pipeline"
	// flight ring and triggers a dump per quarantine burst.
	Flight *obs.Flight
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.NumCPU()
}

// metrics holds the run's obs instrument handles, resolved once so the
// worker loop pays only atomic ops. Counters are registry-lifetime
// (scrapes see totals across runs); the gen0/lint0 baselines make
// Stats run-relative.
type metrics struct {
	generated   *obs.Counter   // pipeline_generated_total
	linted      *obs.Counter   // pipeline_linted_total
	quarantined *obs.Counter   // pipeline_quarantined_total
	inFlight    *obs.Gauge     // pipeline_in_flight
	certsPerSec *obs.Gauge     // pipeline_certs_per_sec
	genSeconds  *obs.Histogram // pipeline_slot_generate_seconds
	lintSeconds *obs.Histogram // pipeline_slot_lint_seconds

	journal *obs.Journal
	flight  *obs.Flight
	ring    *obs.FlightRing

	gen0, lint0, quar0 uint64
	start              time.Time
}

func newMetrics(pc Config) *metrics {
	reg := pc.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	reg.Help("pipeline_generated_total", "Certificates built and parsed (incl. precerts/variants).")
	reg.Help("pipeline_linted_total", "Certificates linted.")
	reg.Help("pipeline_quarantined_total", "Generate/lint panics contained to one item instead of killing the run.")
	reg.Help("pipeline_in_flight", "Slots currently inside a worker.")
	reg.Help("pipeline_certs_per_sec", "Linted certificates per second of wall clock, this run.")
	reg.Help("pipeline_slot_generate_seconds", "Per-slot generate (build+sign+parse) latency.")
	reg.Help("pipeline_slot_lint_seconds", "Per-slot lint latency.")
	m := &metrics{
		generated:   reg.Counter("pipeline_generated_total"),
		linted:      reg.Counter("pipeline_linted_total"),
		quarantined: reg.Counter("pipeline_quarantined_total"),
		inFlight:    reg.Gauge("pipeline_in_flight"),
		certsPerSec: reg.Gauge("pipeline_certs_per_sec"),
		genSeconds:  reg.Histogram("pipeline_slot_generate_seconds", nil),
		lintSeconds: reg.Histogram("pipeline_slot_lint_seconds", nil),
		journal:     pc.Journal,
		flight:      pc.Flight,
		ring:        pc.Flight.Ring("pipeline"),
		start:       time.Now(),
	}
	m.gen0 = m.generated.Value()
	m.lint0 = m.linted.Value()
	m.quar0 = m.quarantined.Value()
	return m
}

// quarantine accounts one contained generate/lint panic: counter,
// journal event, flight-ring record, and a (throttled) flight dump —
// the quarantined artifact is the forensic payload the ISSUE's threat
// model cares about.
func (m *metrics) quarantine(slot, index int, stage string) {
	m.quarantined.Inc()
	m.ring.Record("quarantine", stage, int64(slot), int64(index))
	m.journal.Emit(nil, "pipeline.quarantine", map[string]any{
		"slot": slot, "index": index, "stage": stage,
	})
	_, _ = m.flight.Trigger("quarantine")
}

// Stats is a point-in-time snapshot of pipeline progress.
type Stats struct {
	Workers     int
	Generated   uint64 // certificates built and parsed
	Linted      uint64 // certificates linted
	Quarantined uint64 // generate/lint panics contained per item
	InFlight    int64  // slots being processed right now
	Elapsed     time.Duration
	CertsPerSec float64 // linted certificates per second of wall clock
}

func (m *metrics) snapshot(workers int) Stats {
	elapsed := time.Since(m.start)
	s := Stats{
		Workers:     workers,
		Generated:   m.generated.Value() - m.gen0,
		Linted:      m.linted.Value() - m.lint0,
		Quarantined: m.quarantined.Value() - m.quar0,
		InFlight:    int64(m.inFlight.Value()),
		Elapsed:     elapsed,
	}
	if secs := elapsed.Seconds(); secs > 0 {
		s.CertsPerSec = float64(s.Linted) / secs
	}
	// Mirror the derived rate into a gauge so a scrape sees it too.
	m.certsPerSec.Set(s.CertsPerSec)
	return s
}

// Quarantine records one generate or lint panic that was contained to
// its item instead of killing the run.
type Quarantine struct {
	// Slot is the corpus slot the panic happened in.
	Slot int
	// Index is the certificate's global index in the assembled corpus;
	// -1 when the whole slot's generation panicked (no entries exist
	// to index).
	Index int
	// Stage is "generate" or "lint".
	Stage string
	// Err carries the recovered panic value.
	Err error
}

// Result is a measurement plus the pipeline stats observed at
// completion.
type Result struct {
	Measurement *corpus.Measurement
	Stats       Stats
	// Quarantines lists the contained generate/lint panics, in slot
	// order; empty on a healthy run.
	Quarantines []Quarantine
}

// safeGenerateSlot builds slot i, converting a panic inside the
// generator into an error so one hostile slot cannot kill the run.
func safeGenerateSlot(gen *corpus.Generator, i int) (s *corpus.Slot, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pipeline: generate slot %d panicked: %v", i, r)
			panicked = true
		}
	}()
	s, err = gen.GenerateSlot(i)
	return s, err, false
}

// runLintSafe lints one certificate, converting a panicking lint into
// an empty result plus a false ok. The happy path adds nothing: same
// registry Run, one open-coded defer.
func runLintSafe(reg *lint.Registry, c *x509cert.Certificate, opts lint.Options) (res *lint.CertResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = &lint.CertResult{}
			err = fmt.Errorf("pipeline: lint panicked: %v", r)
		}
	}()
	return reg.Run(c, opts), nil
}

// slotOutput is one slot's generate→lint output.
type slotOutput struct {
	slot        *corpus.Slot       // nil when generation panicked
	results     []*lint.CertResult // parallel to slot.Entries
	quarantined []Quarantine       // Index is slot-local; -1 for a generate panic
}

// measureSlot is the per-slot step behind Measure and MeasureStream:
// contained generate, generate-panic quarantine, runLintSafe over every
// entry (appending to results[:0]), and the counter/histogram updates.
// A quarantined lint leaves its valid empty CertResult in the cell. A
// clean generator error is returned: it is a configuration problem,
// whereas a panic is a hostile input contained to the slot.
func (m *metrics) measureSlot(gen *corpus.Generator, reg *lint.Registry, opts lint.Options, i int, results []*lint.CertResult) (slotOutput, error) {
	m.inFlight.Add(1)
	defer m.inFlight.Add(-1)
	tGen := time.Now()
	s, err, panicked := safeGenerateSlot(gen, i)
	if err != nil {
		if !panicked {
			return slotOutput{}, err
		}
		m.quarantine(i, -1, "generate")
		return slotOutput{quarantined: []Quarantine{{Slot: i, Index: -1, Stage: "generate", Err: err}}}, nil
	}
	m.genSeconds.Observe(time.Since(tGen).Seconds())
	n := len(s.Entries)
	if s.Precert != nil {
		n++
	}
	m.generated.Add(uint64(n))
	tLint := time.Now()
	out := slotOutput{slot: s, results: slices.Grow(results[:0], len(s.Entries))}
	for j, e := range s.Entries {
		r, lerr := runLintSafe(reg, e.Cert, opts)
		out.results = append(out.results, r)
		if lerr != nil {
			m.quarantine(i, j, "lint")
			out.quarantined = append(out.quarantined, Quarantine{Slot: i, Index: j, Stage: "lint", Err: lerr})
		}
	}
	m.lintSeconds.Observe(time.Since(tLint).Seconds())
	m.linted.Add(uint64(len(s.Entries)))
	return out, nil
}

// resultBufs recycles MeasureStream's per-slot result slices, which
// are dead once fold returns.
var resultBufs = sync.Pool{New: func() any { return new([]*lint.CertResult) }}

// MeasureStream runs the fused generate→lint pipeline without
// retaining the corpus: each slot is linted, handed to fold, and then
// recycled via corpus.ReleaseSlot, so a steady-state run holds
// O(workers) slots in memory instead of O(corpus) and reuses Entry and
// Certificate structs batch-wise.
//
// fold is called from worker goroutines one at a time (a mutex
// serializes it) in arbitrary slot order. results is parallel to
// s.Entries; a nil element marks a certificate whose lint run panicked
// (it is also reported in the returned quarantine count via Stats). A
// slot whose generation panicked is counted the same way and never
// reaches fold. fold must copy out whatever it aggregates: the slot,
// its entries, certificates, DER slices, memoized views, and results
// are all invalid — owned by future slots — the moment fold returns. A
// non-nil error from fold cancels the run.
func MeasureStream(ctx context.Context, cfg corpus.Config, reg *lint.Registry, opts lint.Options, pc Config, fold func(slot int, s *corpus.Slot, results []*lint.CertResult) error) (Stats, error) {
	gen, err := corpus.NewGenerator(cfg)
	if err != nil {
		return Stats{}, err
	}
	ctr := newMetrics(pc)
	var foldMu sync.Mutex
	err = parallelIndexed(ctx, gen.Slots(), pc, func(i int) error {
		buf := resultBufs.Get().(*[]*lint.CertResult)
		defer resultBufs.Put(buf)
		out, err := ctr.measureSlot(gen, reg, opts, i, *buf)
		if err != nil || out.slot == nil {
			return err
		}
		*buf = out.results
		for _, q := range out.quarantined {
			out.results[q.Index] = nil
		}
		foldMu.Lock()
		err = fold(i, out.slot, out.results)
		foldMu.Unlock()
		corpus.ReleaseSlot(out.slot)
		return err
	})
	if err != nil {
		return Stats{}, err
	}
	return ctr.snapshot(pc.workers()), nil
}

// Measure generates the corpus for cfg and lints every entry, fanned
// out across pc.Workers fused workers. The returned measurement is
// byte-identical to corpus.Generate + corpus.RunLinter for any worker
// count. The context cancels the run early; the first error (or
// ctx.Err()) is returned.
func Measure(ctx context.Context, cfg corpus.Config, reg *lint.Registry, opts lint.Options, pc Config) (*Result, error) {
	gen, err := corpus.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	ctr := newMetrics(pc)
	// Disjoint per-slot cells; parallelIndexed's wg.Wait orders these
	// writes before the aggregation below.
	outs := make([]slotOutput, gen.Slots())
	err = parallelIndexed(ctx, gen.Slots(), pc, func(i int) error {
		out, err := ctr.measureSlot(gen, reg, opts, i, nil)
		if err != nil {
			return err
		}
		if out.slot == nil {
			out.slot = &corpus.Slot{} // generation panicked: an empty, quarantined slot
		}
		outs[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Aggregate in slot order. Truncation to cfg.Size is mirrored from
	// corpus.Generator.Assemble so the lint results stay parallel to
	// the entry list. Quarantine records are rewritten from slot-local
	// to global certificate indexes as the offsets become known.
	slots := make([]*corpus.Slot, len(outs))
	m := &corpus.Measurement{}
	var quarantines []Quarantine
	for i := range outs {
		slots[i] = outs[i].slot
		base := len(m.Results)
		m.Results = append(m.Results, outs[i].results...)
		for _, q := range outs[i].quarantined {
			if q.Index >= 0 {
				q.Index += base
			}
			quarantines = append(quarantines, q)
		}
	}
	m.Corpus = gen.Assemble(slots)
	if len(m.Results) > len(m.Corpus.Entries) {
		m.Results = m.Results[:len(m.Corpus.Entries)]
	}
	return &Result{Measurement: m, Stats: ctr.snapshot(pc.workers()), Quarantines: quarantines}, nil
}

// LintDERs parses (leniently) and lints raw DER certificates across
// workers, preserving input order — the parallel backend for unilint's
// multi-certificate invocations.
func LintDERs(ctx context.Context, ders [][]byte, reg *lint.Registry, opts lint.Options, pc Config) ([]*lint.CertResult, error) {
	out := make([]*lint.CertResult, len(ders))
	err := parallelIndexed(ctx, len(ders), pc, func(i int) error {
		// Zero-copy parse: ders[i] is caller-owned and outlives the
		// results, which is exactly the ParseLint ownership contract.
		cert, err := x509cert.ParseLint(ders[i], x509cert.ParseLenient)
		if err != nil {
			return err
		}
		r, lerr := runLintSafe(reg, cert, opts)
		if lerr != nil {
			return fmt.Errorf("certificate %d: %w", i, lerr)
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// parallelIndexed is the package's one goroutine fan-out: it runs fn(i)
// for i in [0, n) across pc workers, fed through a bounded queue of 4×
// workers (enough to keep fast workers busy without letting the feeder
// race ahead of slow ones), with context cancellation. Each index is
// processed at most once; the first error cancels the run.
func parallelIndexed(ctx context.Context, n int, pc Config, fn func(int) error) error {
	workers := pc.workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	jobs := make(chan int, 4*workers)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if err := fn(i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			fail(ctx.Err())
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	return firstErr
}
