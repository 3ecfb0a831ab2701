// Command benchjson converts `go test -bench` output into a JSON
// benchmark record. It tees its stdin to stdout unchanged (so the
// benchmark tables remain visible in the terminal and CI logs),
// aggregates repeated runs of the same benchmark — `make bench` feeds
// it three interleaved rounds — into median plus min/max spread,
// derives per-certificate allocation costs for every benchmark that
// reports certs/s, and writes the result to the file named by -o.
//
// When a previous BENCH_*.json exists (auto-detected, or named via
// -prev) it also prints a delta table comparing median ns/op and the
// derived per-cert allocations against that baseline.
//
// Usage:
//
//	for r in 1 2 3; do go test -run '^$' -bench . -benchmem ./...; done \
//	  | benchjson -o BENCH_5.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sample is one raw parsed result line.
type sample struct {
	name          string
	iterations    int64
	nsPerOp       float64
	bPerOp        float64
	allocsPerOp   float64
	certsPerSec   float64
	entriesPerSec float64
	commitsPerOp  float64
}

// Benchmark aggregates every round of one benchmark. The headline
// numbers are medians across rounds; NsPerOpMin/Max record the spread
// so a noisy host is visible in the record itself.
type Benchmark struct {
	Name        string  `json:"name"`
	Rounds      int     `json:"rounds"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	NsPerOpMin  float64 `json:"ns_per_op_min,omitempty"`
	NsPerOpMax  float64 `json:"ns_per_op_max,omitempty"`
	BPerOp      float64 `json:"b_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	CertsPerSec float64 `json:"certs_per_sec,omitempty"`
	// EntriesPerSec is the fleet-crawl throughput: unique CT entries
	// delivered downstream per second, summed across all logs.
	EntriesPerSec float64 `json:"entries_per_sec,omitempty"`
	// CommitsPerOp is the fleet group-commit count per crawl (the
	// FleetCrawlCommit variants), read next to EntriesPerSec.
	CommitsPerOp float64 `json:"commits_per_op,omitempty"`
	// AllocsPerCert and BytesPerCert are derived for benchmarks that
	// report certs/s: per-op cost divided by certs per op
	// (certs_per_sec × ns_per_op / 1e9). These are the numbers the
	// allocation-budget guard (scripts/allocguard.sh) enforces.
	AllocsPerCert float64 `json:"allocs_per_cert,omitempty"`
	BytesPerCert  float64 `json:"bytes_per_cert,omitempty"`
}

// Histogram is one parsed "obshist" snapshot line, emitted by the E2E
// benchmarks from their obs registry (per-slot latency distributions).
// With multiple rounds the last snapshot per (bench, metric) wins —
// the registry accumulates, so the last line covers all rounds.
type Histogram struct {
	Bench  string  `json:"bench"`
	Metric string  `json:"metric"`
	Count  int64   `json:"count"`
	Sum    float64 `json:"sum"`
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	P99    float64 `json:"p99"`
}

// Report is the file schema.
type Report struct {
	Generated      string      `json:"generated"`
	GoOS           string      `json:"goos"`
	GoArch         string      `json:"goarch"`
	NumCPU         int         `json:"num_cpu"`
	Note           string      `json:"note,omitempty"`
	Baseline       string      `json:"baseline,omitempty"`
	E2ESpeedup8W   float64     `json:"e2e_speedup_8_workers,omitempty"`
	E2ESpeedupNCPU float64     `json:"e2e_speedup_numcpu,omitempty"`
	Benchmarks     []Benchmark `json:"benchmarks"`
	Histograms     []Histogram `json:"histograms,omitempty"`
}

func main() {
	out := flag.String("o", "BENCH.json", "output JSON file")
	note := flag.String("note", "", "free-form note recorded in the report")
	prev := flag.String("prev", "", "previous BENCH_*.json to diff against (default: auto-detect)")
	flag.Parse()

	var samples []sample
	var hists []Histogram
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		if s, ok := parseBenchLine(line); ok {
			samples = append(samples, s)
		}
		if h, ok := parseObsHistLine(line); ok {
			hists = append(hists, h)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read stdin: %v\n", err)
		os.Exit(1)
	}

	benches := aggregate(samples)
	rep := Report{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		Note:       *note,
		Benchmarks: benches,
		Histograms: dedupeHists(hists),
	}
	if base := nsFor(benches, "BenchmarkMeasureCorpusE2E1"); base > 0 {
		if w8 := nsFor(benches, "BenchmarkMeasureCorpusE2E8"); w8 > 0 {
			rep.E2ESpeedup8W = round2(base / w8)
		}
		if ncpu := nsFor(benches, "BenchmarkMeasureCorpusE2ENumCPU"); ncpu > 0 {
			rep.E2ESpeedupNCPU = round2(base / ncpu)
		}
	}

	prevPath := *prev
	if prevPath == "" {
		prevPath = findPrevReport(*out)
	}
	if prevPath != "" {
		if old, err := loadReport(prevPath); err == nil {
			rep.Baseline = prevPath
			printDeltaTable(os.Stdout, prevPath, old, benches)
		} else {
			fmt.Fprintf(os.Stderr, "benchjson: skipping delta vs %s: %v\n", prevPath, err)
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks (%d raw rounds) to %s\n",
		len(benches), len(samples), *out)
}

// aggregate groups samples by benchmark name (first-seen order) and
// reduces each group to medians plus ns/op spread, then derives the
// per-certificate costs.
func aggregate(samples []sample) []Benchmark {
	order := []string{}
	byName := map[string][]sample{}
	for _, s := range samples {
		if _, seen := byName[s.name]; !seen {
			order = append(order, s.name)
		}
		byName[s.name] = append(byName[s.name], s)
	}
	out := make([]Benchmark, 0, len(order))
	for _, name := range order {
		group := byName[name]
		b := Benchmark{Name: name, Rounds: len(group)}
		var ns, bytes, allocs, certs, entries, commits []float64
		for _, s := range group {
			if s.iterations > b.Iterations {
				b.Iterations = s.iterations
			}
			ns = append(ns, s.nsPerOp)
			bytes = append(bytes, s.bPerOp)
			allocs = append(allocs, s.allocsPerOp)
			certs = append(certs, s.certsPerSec)
			entries = append(entries, s.entriesPerSec)
			commits = append(commits, s.commitsPerOp)
		}
		b.NsPerOp = median(ns)
		if len(ns) > 1 {
			sort.Float64s(ns)
			b.NsPerOpMin, b.NsPerOpMax = ns[0], ns[len(ns)-1]
		}
		b.BPerOp = median(bytes)
		b.AllocsPerOp = median(allocs)
		b.CertsPerSec = median(certs)
		b.EntriesPerSec = median(entries)
		b.CommitsPerOp = median(commits)
		derivePerCert(&b)
		out = append(out, b)
	}
	return out
}

// derivePerCert fills AllocsPerCert/BytesPerCert from the median
// per-op numbers for benchmarks that report a certs/s rate.
func derivePerCert(b *Benchmark) {
	if b.CertsPerSec <= 0 || b.NsPerOp <= 0 {
		return
	}
	certsPerOp := b.CertsPerSec * b.NsPerOp / 1e9
	if certsPerOp <= 0 {
		return
	}
	if b.AllocsPerOp > 0 {
		b.AllocsPerCert = round2(b.AllocsPerOp / certsPerOp)
	}
	if b.BPerOp > 0 {
		b.BytesPerCert = round2(b.BPerOp / certsPerOp)
	}
}

func median(vals []float64) float64 {
	nz := vals[:0:0]
	for _, v := range vals {
		if v != 0 {
			nz = append(nz, v)
		}
	}
	if len(nz) == 0 {
		return 0
	}
	sort.Float64s(nz)
	n := len(nz)
	if n%2 == 1 {
		return nz[n/2]
	}
	return (nz[n/2-1] + nz[n/2]) / 2
}

func dedupeHists(hists []Histogram) []Histogram {
	type hkey struct{ bench, metric string }
	idx := map[hkey]int{}
	var out []Histogram
	for _, h := range hists {
		k := hkey{h.Bench, h.Metric}
		if i, ok := idx[k]; ok {
			out[i] = h
			continue
		}
		idx[k] = len(out)
		out = append(out, h)
	}
	return out
}

// findPrevReport picks the lexically-last BENCH_*.json in the current
// directory that is not the output target — with the BENCH_<n> naming
// convention that is the most recent committed record.
func findPrevReport(out string) string {
	matches, _ := filepath.Glob("BENCH_*.json")
	sort.Strings(matches)
	for i := len(matches) - 1; i >= 0; i-- {
		if filepath.Clean(matches[i]) != filepath.Clean(out) {
			return matches[i]
		}
	}
	return ""
}

func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	// Older records predate the derived fields; fill them so the delta
	// table compares like with like.
	for i := range r.Benchmarks {
		if r.Benchmarks[i].AllocsPerCert == 0 {
			derivePerCert(&r.Benchmarks[i])
		}
	}
	return &r, nil
}

// printDeltaTable renders the comparison against the previous record:
// median ns/op plus, where available, the derived per-cert allocation
// numbers the PR-over-PR perf work is tracked by.
func printDeltaTable(w *os.File, prevPath string, old *Report, cur []Benchmark) {
	oldBy := map[string]Benchmark{}
	for _, b := range old.Benchmarks {
		oldBy[b.Name] = b
	}
	fmt.Fprintf(w, "\nbenchjson: delta vs %s (generated %s)\n", prevPath, old.Generated)
	fmt.Fprintf(w, "%-40s %15s %15s %8s %12s %12s %8s\n",
		"benchmark", "old ns/op", "new ns/op", "Δ", "old alloc/c", "new alloc/c", "Δ")
	for _, b := range cur {
		o, ok := oldBy[b.Name]
		if !ok {
			fmt.Fprintf(w, "%-40s %15s %15.0f %8s\n", b.Name, "(new)", b.NsPerOp, "")
			continue
		}
		nsDelta := pct(o.NsPerOp, b.NsPerOp)
		allocOld, allocNew, allocDelta := "", "", ""
		if o.AllocsPerCert > 0 && b.AllocsPerCert > 0 {
			allocOld = fmt.Sprintf("%.1f", o.AllocsPerCert)
			allocNew = fmt.Sprintf("%.1f", b.AllocsPerCert)
			allocDelta = pct(o.AllocsPerCert, b.AllocsPerCert)
		}
		fmt.Fprintf(w, "%-40s %15.0f %15.0f %8s %12s %12s %8s\n",
			b.Name, o.NsPerOp, b.NsPerOp, nsDelta, allocOld, allocNew, allocDelta)
	}
	fmt.Fprintln(w)
}

func pct(old, cur float64) string {
	if old <= 0 {
		return ""
	}
	return fmt.Sprintf("%+.1f%%", (cur-old)/old*100)
}

// parseBenchLine parses a benchmark result line of the form
//
//	BenchmarkName-8   	     123	   9876 ns/op	  12 B/op	  3 allocs/op	  4567 certs/s
//
// The -N GOMAXPROCS suffix is stripped from the name.
func parseBenchLine(line string) (sample, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return sample{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return sample{}, false
	}
	s := sample{name: name, iterations: iters}
	// Remaining fields come in value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return sample{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			s.nsPerOp = v
		case "B/op":
			s.bPerOp = v
		case "allocs/op":
			s.allocsPerOp = v
		case "certs/s":
			s.certsPerSec = v
		case "entries/s":
			s.entriesPerSec = v
		case "commits/op":
			s.commitsPerOp = v
		}
	}
	if s.nsPerOp == 0 {
		return sample{}, false
	}
	return s, true
}

// parseObsHistLine parses a histogram snapshot line of the form
//
//	obshist BenchmarkMeasureCorpusE2E8 pipeline_slot_lint_seconds count=870 sum=1.23 p50=0.0004 p90=0.0016 p99=0.0065
func parseObsHistLine(line string) (Histogram, bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 || fields[0] != "obshist" {
		return Histogram{}, false
	}
	h := Histogram{Bench: fields[1], Metric: fields[2]}
	for _, f := range fields[3:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return Histogram{}, false
		}
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return Histogram{}, false
		}
		switch k {
		case "count":
			h.Count = int64(x)
		case "sum":
			h.Sum = x
		case "p50":
			h.P50 = x
		case "p90":
			h.P90 = x
		case "p99":
			h.P99 = x
		}
	}
	if h.Count == 0 {
		return Histogram{}, false
	}
	return h, true
}

func nsFor(benches []Benchmark, name string) float64 {
	for _, b := range benches {
		if b.Name == name {
			return b.NsPerOp
		}
	}
	return 0
}

func round2(f float64) float64 { return float64(int64(f*100+0.5)) / 100 }
