package main

// In-memory span recorder for the traced run. Spans are recorded by
// the benchmark around its own calls into each layer, and the spans
// the program already emits through obs.Tracer (monitor.sync, the
// ctlog client's request/attempt spans) are merged in at the end, so
// one tree covers both. A nil *tracer records nothing, which is how
// the untraced run pays no tracing cost.

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// obsIDBit namespaces merged obs.Tracer span IDs apart from the
// benchmark's own.
const obsIDBit = 1 << 63

// obsRing is the obs.Tracer capacity for traced runs; the run is
// flagged if the ring filled, since a full ring may have overwritten.
const obsRing = 1 << 17

type span struct {
	id, parent uint64
	name       string
	start, end int64 // ns since the tracer's epoch
}

type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin allocates a span ID and stamps its start.
func (t *tracer) begin() (uint64, int64) {
	if t == nil {
		return 0, 0
	}
	return t.ids.Add(1), int64(time.Since(t.epoch))
}

// end records a span begun with begin.
func (t *tracer) end(id, parent uint64, name string, start int64) {
	if t == nil {
		return
	}
	s := span{id: id, parent: parent, name: name, start: start, end: int64(time.Since(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// mergeObs folds the program's obs spans into the trace. It reports
// false when the obs ring filled (older spans may have been lost).
func (t *tracer) mergeObs(ot *obs.Tracer) bool {
	if t == nil || ot == nil {
		return true
	}
	all := ot.Spans()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range all {
		p := s.Parent
		if p != 0 {
			p |= obsIDBit
		}
		t.spans = append(t.spans, span{
			id: s.ID | obsIDBit, parent: p, name: s.Name,
			start: int64(s.Start.Sub(t.epoch)), end: int64(s.End.Sub(t.epoch)),
		})
	}
	return len(all) < obsRing
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	count int
	busy  float64 // Σ duration, seconds
	self  float64 // Σ (duration − time covered by direct children), seconds
	durs  []float64
}

// analyze computes per-name busy and self times.
func (t *tracer) analyze() map[string]*layerStat {
	out := map[string]*layerStat{}
	if t == nil {
		return out
	}
	byParent := make([]int, len(t.spans))
	for i := range byParent {
		byParent[i] = i
	}
	sort.Slice(byParent, func(a, b int) bool { return t.spans[byParent[a]].parent < t.spans[byParent[b]].parent })
	children := func(id uint64) []int {
		lo := sort.Search(len(byParent), func(i int) bool { return t.spans[byParent[i]].parent >= id })
		hi := lo
		for hi < len(byParent) && t.spans[byParent[hi]].parent == id {
			hi++
		}
		return byParent[lo:hi]
	}
	var iv [][2]int64
	for _, s := range t.spans {
		st := out[s.name]
		if st == nil {
			st = &layerStat{}
			out[s.name] = st
		}
		d := float64(s.end-s.start) / 1e9
		st.count++
		st.busy += d
		st.durs = append(st.durs, d)
		iv = iv[:0]
		for _, c := range children(s.id) {
			iv = append(iv, [2]int64{t.spans[c].start, t.spans[c].end})
		}
		st.self += d - float64(coverage(iv, s.start, s.end))/1e9
	}
	return out
}

// coverage is the length of the union of intervals, clipped to [lo, hi].
func coverage(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		s, e := max(x[0], lo), min(x[1], hi)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// reconcileGap checks that the blocking-path spans account for the
// wall time of each root span: for every span named root it returns
// the share of its interval NOT covered by spans named in blocking
// (matched by time, since parallel layers overlap). The median over
// root spans is returned; 0 means every instant was attributed.
func (t *tracer) reconcileGap(root string, blocking ...string) float64 {
	if t == nil {
		return 0
	}
	want := map[string]bool{}
	for _, b := range blocking {
		want[b] = true
	}
	var block [][2]int64
	var roots []span
	for _, s := range t.spans {
		if want[s.name] {
			block = append(block, [2]int64{s.start, s.end})
		}
		if s.name == root {
			roots = append(roots, s)
		}
	}
	sort.Slice(block, func(a, b int) bool { return block[a][0] < block[b][0] })
	var gaps []float64
	iv := [][2]int64{}
	for _, r := range roots {
		if r.end <= r.start {
			continue
		}
		iv = iv[:0]
		// block is sorted by start; only spans starting before r.end can overlap.
		n := sort.Search(len(block), func(i int) bool { return block[i][0] >= r.end })
		for _, b := range block[:n] {
			if b[1] > r.start {
				iv = append(iv, b)
			}
		}
		gaps = append(gaps, 1-float64(coverage(iv, r.start, r.end))/float64(r.end-r.start))
	}
	return median(gaps)
}

// write stores the trace as gzipped TSV (id, parent, name, start_ns,
// end_ns) under .bench_build, replacing the workload's previous trace.
func (t *tracer) write(workload string) (string, error) {
	if t == nil {
		return "", nil
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(".bench_build", "trace-"+workload+".tsv.gz")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id\tparent\tname\tstart_ns\tend_ns")
	for _, s := range t.spans {
		fmt.Fprintf(bw, "%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.name, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
