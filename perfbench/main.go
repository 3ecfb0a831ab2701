// Command perfbench is the repository benchmark: one command that
// drives the two real paths of the system through their public APIs
// and prints every metric by name with its unit.
//
//	go run . --workload rq1_lint --seed 1 --seconds 10 --trace 0
//
// Workloads (see spec.json for why each was chosen and what each
// per-layer metric is predicted to move):
//
//   - rq1_lint: the paper's RQ1 linter on DER — pipeline.LintDERs,
//     then the ctscan aggregation — closed loop, repeated passes.
//   - fleet_backfill: an audited fleet crawl of two loopback CT logs
//     into the LSM index — closed loop, repeated catch-up rounds.
//
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 it carries the per-layer metrics, taken from spans
// the benchmark records around its calls into each layer plus the
// spans the program already emits (obs.Tracer). Metric names and units
// are read from BENCHMARK.json in the working directory, the one place
// they are kept. Human-readable detail goes to stderr. An invalid
// output prints correct:false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

var stderr = os.Stderr

// setupRepeats is how many times each workload builds its inputs; the
// reported setup_s is the median, so one slow build does not move it.
const setupRepeats = 3

// opts are the command-line run parameters.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workDir  string // scratch space inside the checkout, removed at exit
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload returns: the contract fields plus any
// flags (conditions that do not invalidate output but make the run
// suspect, e.g. a generator that fell behind).
type result struct {
	correct   bool
	attempted int
	failed    int
	e2e       map[string]float64
	layer     map[string]float64
	flags     []string
}

func newResult() *result {
	return &result{correct: true, e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *result) setE2E(name string, v float64)   { r.e2e[name] = v }
func (r *result) setLayer(name string, v float64) { r.layer[name] = v }

// invalid marks the output wrong; the run still prints its result
// line, then exits 1.
func (r *result) invalid(format string, args ...any) {
	r.correct = false
	fmt.Fprintf(os.Stderr, "perfbench: INVALID OUTPUT: "+format+"\n", args...)
}

func (r *result) flag(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.flags = append(r.flags, msg)
	fmt.Fprintf(os.Stderr, "perfbench: FLAG: %s\n", msg)
}

var workloads = map[string]func(opts) (*result, error){
	"rq1_lint":       runRQ1,
	"fleet_backfill": runBackfill,
}

func main() {
	var o opts
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "rq1_lint or fleet_backfill")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	o.trace = traceFlag == 1
	run, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", o.workload, o.seconds, traceFlag)
		os.Exit(2)
	}
	decl, err := loadDeclared("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	err = os.MkdirAll(".bench_build", 0o755)
	dir := ""
	if err == nil {
		dir, err = os.MkdirTemp(".bench_build", "run-")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	o.workDir, _ = filepath.Abs(dir)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d seconds=%v trace=%v nproc=%d GOMAXPROCS=%d %s\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	res, err := run(o)
	os.RemoveAll(o.workDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	res.setLayer("trace.flags", float64(len(res.flags)))
	e2e, err := decl.e2e.metrics(res.e2e, false)
	var layer map[string]metric
	if err == nil {
		// A workload that does not exercise a layer reports 0 for it.
		layer, err = decl.layer.metrics(res.layer, true)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	printHuman(res, e2e, layer)
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, e2e}
	if o.trace {
		out.Metrics = layer
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.correct {
		os.Exit(1)
	}
}

func printHuman(r *result, e2e, layer map[string]metric) {
	for _, group := range []map[string]metric{e2e, layer} {
		names := make([]string, 0, len(group))
		for n := range group {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(os.Stderr, "  %-44s %14.6g %s\n", n, group[n].Value, group[n].Unit)
		}
	}
	fmt.Fprintf(os.Stderr, "  attempted=%d failed=%d correct=%v flags=%d\n", r.attempted, r.failed, r.correct, len(r.flags))
}

// timedSetup runs build setupRepeats times, closing every result but
// the last, and returns the last with the median build time.
func timedSetup[T any](build func() (T, error), close func(T)) (T, float64, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			close(last)
		}
		runtime.GC()
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	runtime.GC()
	return last, median(times), nil
}

// heapSampler records the peak heap goal at a fixed interval during
// the timed phase, one peak per round (see lap). The heap goal is the
// heap size the runtime lets in-use memory reach before it next
// collects: the live heap after the last GC scaled by GOGC, plus stacks
// and globals. Unlike the live heap it includes the growth between
// collections; unlike a sample of in-use bytes it is set once per GC
// cycle, so its peak does not depend on where a sample falls inside a
// cycle (per-round peaks of in-use bytes spread about 15% between
// runs, heap-goal peaks about 1%).
type heapSampler struct {
	mu   sync.Mutex
	peak uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

const heapSampleEvery = 5 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.read()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.read()
			}
		}
	}()
	return h
}

func (h *heapSampler) read() {
	s := []metrics.Sample{{Name: "/gc/heap/goal:bytes"}}
	metrics.Read(s)
	h.mu.Lock()
	h.peak = max(h.peak, s[0].Value.Uint64())
	h.mu.Unlock()
}

// lap returns the peak in MiB since the previous lap and starts the
// next one from the current value.
func (h *heapSampler) lap() float64 {
	h.read()
	h.mu.Lock()
	peak := h.peak
	h.peak = 0
	h.mu.Unlock()
	h.read()
	return float64(peak) / (1 << 20)
}

// close stops the sampler and waits for it.
func (h *heapSampler) close() {
	close(h.stop)
	h.wg.Wait()
}

// runtimeCounters snapshots cumulative allocation bytes and GC cycles.
type runtimeCounters struct{ allocBytes, gcCycles uint64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return runtimeCounters{s[0].Value.Uint64(), s[1].Value.Uint64()}
}

func (a runtimeCounters) sub(b runtimeCounters) runtimeCounters {
	return runtimeCounters{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles}
}

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// dirBytes sums regular-file sizes under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
