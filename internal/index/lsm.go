package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// LSM is the persistent backend: a mutable append-then-merge memtable
// absorbs writes, flushes become immutable CRC-sealed segment files, and a
// background compactor merges segments back down so reads never fan
// out across more than ~CompactAfter sorted runs. The store is
// append-only (no updates, no deletes — CT logs never un-log), so
// compaction is a pure k-way merge with full-key duplicate collapse,
// and a crash at any point leaves either valid files or files the
// opener quarantines and REPORTS.
type LSM struct {
	opts Options

	mu       sync.RWMutex
	mem      memtable
	segments []*segment
	damaged  []string
	nextSeg  int64

	seq         atomic.Uint64
	flushes     atomic.Uint64
	compactions atomic.Uint64

	compactMu   sync.Mutex // serializes Compact bodies
	compactKick chan struct{}
	compactDone chan struct{}
	closed      bool

	putCtr     *obs.Counter
	flushCtr   *obs.Counter
	compactCtr *obs.Counter
	damagedCtr *obs.Counter

	encBuf []byte // Put scratch; guarded by mu
}

// Options tunes an LSM store. Only Dir is required.
type Options struct {
	// Dir holds the segment files; created if missing.
	Dir string
	// FlushAt is the memtable posting count that triggers an automatic
	// flush (default 4096).
	FlushAt int
	// CompactAfter is the segment count that wakes the background
	// compactor (default 8; negative disables auto-compaction — tests
	// drive Compact explicitly for determinism).
	CompactAfter int
	// Obs, when non-nil, receives the index_* instruments.
	Obs *obs.Registry
	// Journal, when non-nil, receives index.open/flush/compact/
	// segment_damaged events.
	Journal *obs.Journal
}

func (o Options) flushAt() int {
	if o.FlushAt > 0 {
		return o.FlushAt
	}
	return 4096
}

func (o Options) compactAfter() int {
	if o.CompactAfter != 0 {
		return o.CompactAfter
	}
	return 8
}

// memtable is the mutable run: parallel key/value slices whose first
// `sorted` entries are in ascending key order, followed by an unsorted
// tail in arrival order. add is O(1); settle sorts the tail on its
// own (O(t log t)) and merges it backwards into the prefix with one
// binary search and one block move per tail entry, moving only the
// prefix entries that sort after the tail's smallest key, each once.
// Readers and the flush settle first, so a read after every Put moves
// no more than an insertion-sorted table would, and a write-only
// stretch pays one sort per flush instead of a shift per posting.
type memtable struct {
	keys   [][]byte
	vals   [][]byte
	sorted int // keys[:sorted] ascending; keys[sorted:] arrival order
	certs  uint64

	tailKeys, tailVals [][]byte // settle scratch, reused
}

func (m *memtable) add(key, val []byte) {
	m.keys = append(m.keys, key)
	m.vals = append(m.vals, val)
	if len(key) > 0 && key[0] == spaceCert {
		m.certs++
	}
}

func (m *memtable) settled() bool { return m.sorted == len(m.keys) }

// settle makes the whole memtable one ascending run. Keys are unique
// (every posting ends in its Put's sequence number), so no tie order
// needs preserving.
func (m *memtable) settle() {
	s, n := m.sorted, len(m.keys)
	if s == n {
		return
	}
	sort.Sort(kvRun{m.keys[s:], m.vals[s:]})
	if s > 0 {
		// Backward merge: the output fills from the end, so the tail
		// moves to scratch first. Placing tail entry j, the unplaced
		// prefix entries above it (keys[p:i]) have j+1 tail entries
		// below them and shift up by that much as one block.
		m.tailKeys = append(m.tailKeys[:0], m.keys[s:]...)
		m.tailVals = append(m.tailVals[:0], m.vals[s:]...)
		i := s
		for j := n - s - 1; j >= 0; j-- {
			p, _ := slices.BinarySearchFunc(m.keys[:i], m.tailKeys[j], compareKeys)
			copy(m.keys[p+j+1:], m.keys[p:i])
			copy(m.vals[p+j+1:], m.vals[p:i])
			m.keys[p+j], m.vals[p+j] = m.tailKeys[j], m.tailVals[j]
			i = p
		}
		clear(m.tailKeys)
		clear(m.tailVals)
	}
	m.sorted = n
}

// reset empties the memtable for reuse after a flush. The backing
// arrays are kept (segments never alias them: parseSegment re-slices
// the sealed file buffer) and cleared so flushed postings can be
// collected.
func (m *memtable) reset() {
	clear(m.keys)
	clear(m.vals)
	m.keys, m.vals = m.keys[:0], m.vals[:0]
	m.sorted, m.certs = 0, 0
}

// kvRun sorts parallel key/value slices by key.
type kvRun struct{ keys, vals [][]byte }

func (r kvRun) Len() int           { return len(r.keys) }
func (r kvRun) Less(i, j int) bool { return compareKeys(r.keys[i], r.keys[j]) < 0 }
func (r kvRun) Swap(i, j int) {
	r.keys[i], r.keys[j] = r.keys[j], r.keys[i]
	r.vals[i], r.vals[j] = r.vals[j], r.vals[i]
}

func compareKeys(a, b []byte) int { return bytes.Compare(a, b) }

// Open loads (or creates) an LSM store in opts.Dir. Segment files that
// fail validation are renamed *.damaged, counted, journaled, and
// listed in Stats().Damaged — reported, never silently dropped — and
// the rest of the store loads normally.
func Open(opts Options) (*LSM, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("index: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("index: creating dir: %w", err)
	}
	l := &LSM{
		opts:        opts,
		compactKick: make(chan struct{}, 1),
		compactDone: make(chan struct{}),
	}
	files, err := segmentFiles(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("index: listing segments: %w", err)
	}
	var maxSeq uint64
	for _, path := range files {
		if id := segmentID(path); id >= l.nextSeg {
			l.nextSeg = id + 1
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("index: reading segment: %w", err)
		}
		seg, perr := parseSegment(path, buf)
		if perr != nil {
			l.quarantine(path, perr)
			continue
		}
		for _, k := range seg.keys {
			if s := keySeq(k); s > maxSeq {
				maxSeq = s
			}
		}
		l.segments = append(l.segments, seg)
	}
	l.seq.Store(maxSeq)
	l.instrument()
	l.opts.Journal.Emit(nil, "index.open", map[string]any{
		"dir": opts.Dir, "segments": len(l.segments), "damaged": len(l.damaged),
	})
	go l.compactLoop()
	return l, nil
}

// quarantine records and journals one unloadable segment, renaming it
// out of the segment namespace so a later compaction cannot silently
// resurrect a half-file.
func (l *LSM) quarantine(path string, cause error) {
	os.Rename(path, path+".damaged")
	l.damaged = append(l.damaged, path)
	l.damagedCtr.Inc()
	l.opts.Journal.Emit(nil, "index.segment_damaged", map[string]any{
		"file": path, "reason": cause.Error(),
	})
}

// keySeq extracts the trailing sequence number of a posting key.
func keySeq(k []byte) uint64 {
	if len(k) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(k[len(k)-8:])
}

func (l *LSM) instrument() {
	reg := l.opts.Obs
	if reg == nil {
		return
	}
	reg.Help("index_puts_total", "Certificates indexed (Put calls).")
	reg.Help("index_postings", "Live posting keys across memtable and segments.")
	reg.Help("index_segments", "Loaded immutable index segments.")
	reg.Help("index_memtable_postings", "Posting keys in the mutable memtable.")
	reg.Help("index_flushes_total", "Memtable flushes to segment files.")
	reg.Help("index_compactions_total", "Segment compaction merges completed.")
	reg.Help("index_segments_damaged_total", "Segment files quarantined at open for failing validation.")
	l.putCtr = reg.Counter("index_puts_total")
	l.flushCtr = reg.Counter("index_flushes_total")
	l.compactCtr = reg.Counter("index_compactions_total")
	l.damagedCtr = reg.Counter("index_segments_damaged_total")
	reg.GaugeFunc("index_postings", func() float64 { return float64(l.Stats().Postings) })
	reg.GaugeFunc("index_segments", func() float64 {
		l.mu.RLock()
		defer l.mu.RUnlock()
		return float64(len(l.segments))
	})
	reg.GaugeFunc("index_memtable_postings", func() float64 {
		l.mu.RLock()
		defer l.mu.RUnlock()
		return float64(len(l.mem.keys))
	})
	for range l.damaged {
		l.damagedCtr.Inc()
	}
}

// Put implements Index. The memtable flushes synchronously when full
// (bounding memory exactly); compaction, the expensive part, happens
// in the background.
func (l *LSM) Put(rec Record) error {
	l.mu.Lock()
	rec.Seq = l.seq.Add(1)
	l.encBuf = appendRecord(l.encBuf[:0], &rec)
	val := append([]byte(nil), l.encBuf...)
	keys, err := postings(&rec, val)
	if err != nil {
		l.mu.Unlock()
		return err
	}
	for _, k := range keys {
		l.mem.add(k, val)
	}
	full := len(l.mem.keys) >= l.opts.flushAt()
	var ferr error
	if full {
		ferr = l.flushLocked()
	}
	l.mu.Unlock()
	l.putCtr.Inc()
	if ferr != nil {
		return ferr
	}
	if full {
		l.maybeKickCompact()
	}
	return nil
}

// Flush implements Index: persist the memtable as a new segment file.
func (l *LSM) Flush() error {
	l.mu.Lock()
	err := l.flushLocked()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	l.maybeKickCompact()
	return nil
}

func (l *LSM) flushLocked() error {
	if len(l.mem.keys) == 0 {
		return nil
	}
	l.mem.settle()
	path := segmentPath(l.opts.Dir, l.nextSeg)
	buf := buildSegment(l.mem.keys, l.mem.vals)
	if err := writeSegment(path, buf); err != nil {
		return err
	}
	seg, err := parseSegment(path, buf)
	if err != nil {
		// Can only mean buildSegment and parseSegment disagree — a bug,
		// not an I/O condition.
		return fmt.Errorf("index: freshly built segment failed validation: %w", err)
	}
	l.nextSeg++
	l.segments = append(l.segments, seg)
	postings := len(l.mem.keys)
	l.mem.reset()
	l.flushes.Add(1)
	l.flushCtr.Inc()
	l.opts.Journal.Emit(nil, "index.flush", map[string]any{
		"segment": path, "postings": postings,
	})
	return nil
}

func (l *LSM) maybeKickCompact() {
	if l.opts.compactAfter() < 0 {
		return
	}
	l.mu.RLock()
	want := len(l.segments) >= l.opts.compactAfter()
	l.mu.RUnlock()
	if !want {
		return
	}
	select {
	case l.compactKick <- struct{}{}:
	default:
	}
}

// compactLoop is the background compactor: one goroutine, woken by
// flushes that cross the CompactAfter threshold, gone at Close.
func (l *LSM) compactLoop() {
	defer close(l.compactDone)
	for range l.compactKick {
		if err := l.Compact(); err != nil {
			l.opts.Journal.Emit(nil, "index.compact_error", map[string]any{"err": err.Error()})
		}
	}
}

// Compact merges every current segment into one, collapsing full-key
// duplicates (which only exist after a crash between a previous
// compaction's rename and its input unlinks). Queries proceed against
// the old segments until the atomic list swap at the end.
func (l *LSM) Compact() error {
	l.compactMu.Lock()
	defer l.compactMu.Unlock()

	l.mu.Lock()
	inputs := append([]*segment(nil), l.segments...)
	id := l.nextSeg
	l.nextSeg++ // reserve: a concurrent flush must not claim the same file
	l.mu.Unlock()
	if len(inputs) < 2 {
		return nil
	}

	total := 0
	cursors := make([]cursor, len(inputs))
	for i, s := range inputs {
		cursors[i] = cursor{keys: s.keys, vals: s.vals}
		total += len(s.keys)
	}
	keys := make([][]byte, 0, total)
	vals := make([][]byte, 0, total)
	mergeCursors(cursors, nil, nil, func(k, v []byte) bool {
		keys = append(keys, k)
		vals = append(vals, v)
		return true
	})

	path := segmentPath(l.opts.Dir, id)
	buf := buildSegment(keys, vals)
	if err := writeSegment(path, buf); err != nil {
		return err
	}
	merged, err := parseSegment(path, buf)
	if err != nil {
		return fmt.Errorf("index: merged segment failed validation: %w", err)
	}

	l.mu.Lock()
	// Newer flushes may have appended segments behind the snapshot;
	// keep them.
	l.segments = append([]*segment{merged}, l.segments[len(inputs):]...)
	l.mu.Unlock()
	for _, s := range inputs {
		os.Remove(s.path)
	}
	l.compactions.Add(1)
	l.compactCtr.Inc()
	l.opts.Journal.Emit(nil, "index.compact", map[string]any{
		"inputs": len(inputs), "postings": len(keys), "segment": path,
	})
	return nil
}

// Lookup implements Index.
func (l *LSM) Lookup(q Query) ([]Record, error) { return l.LookupAppend(q, nil) }

// LookupAppend implements Index. It reads under the read lock when the
// memtable is settled; a lookup that finds an unsorted tail takes the
// write lock, merges the tail, and answers under that lock.
func (l *LSM) LookupAppend(q Query, dst []Record) ([]Record, error) {
	l.mu.RLock()
	if l.mem.settled() {
		defer l.mu.RUnlock()
		return evalLookup((*lsmStore)(l), q, dst)
	}
	l.mu.RUnlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.mem.settle()
	return evalLookup((*lsmStore)(l), q, dst)
}

// lsmStore is the scan view over the locked LSM with a settled
// memtable; callers hold mu.
type lsmStore LSM

func (s *lsmStore) sources(bloomPrimary []byte) []cursor {
	cs := make([]cursor, 0, len(s.segments)+1)
	cs = append(cs, cursor{keys: s.mem.keys, vals: s.mem.vals})
	for _, seg := range s.segments {
		if bloomPrimary != nil && !seg.bloom.mayContain(bloomPrimary) {
			continue
		}
		cs = append(cs, cursor{keys: seg.keys, vals: seg.vals})
	}
	return cs
}

func (s *lsmStore) scan(lo, hi []byte, fn func(key, val []byte) bool) error {
	mergeCursors(s.sources(nil), lo, hi, fn)
	return nil
}

func (s *lsmStore) scanExact(prefix []byte, fn func(key, val []byte) bool) error {
	// prefix is <space> 0x00 <primary> 0x00; the blooms store the form
	// without the trailing separator.
	mergeCursors(s.sources(prefix[:len(prefix)-1]), prefix, upperBound(prefix), fn)
	return nil
}

// cursor walks one sorted run.
type cursor struct {
	keys, vals [][]byte
	i          int
}

// mergeCursors streams the ascending union of the runs within
// [lo, hi), collapsing full-key duplicates, until fn returns false.
// Runs are few (memtable + ≤ CompactAfter segments), so a linear min
// pick beats heap bookkeeping.
func mergeCursors(cs []cursor, lo, hi []byte, fn func(key, val []byte) bool) {
	for i := range cs {
		if lo != nil {
			c := &cs[i]
			c.i = sort.Search(len(c.keys), func(j int) bool { return bytes.Compare(c.keys[j], lo) >= 0 })
		}
	}
	var prev []byte
	for {
		min := -1
		for i := range cs {
			c := &cs[i]
			// Skip duplicates of the previously emitted key.
			for c.i < len(c.keys) && prev != nil && bytes.Equal(c.keys[c.i], prev) {
				c.i++
			}
			if c.i >= len(c.keys) {
				continue
			}
			if hi != nil && bytes.Compare(c.keys[c.i], hi) >= 0 {
				c.i = len(c.keys) // past the window; retire this run
				continue
			}
			if min < 0 || bytes.Compare(c.keys[c.i], cs[min].keys[cs[min].i]) < 0 {
				min = i
			}
		}
		if min < 0 {
			return
		}
		c := &cs[min]
		if !fn(c.keys[c.i], c.vals[c.i]) {
			return
		}
		prev = c.keys[c.i]
		c.i++
	}
}

// Stats implements Index.
func (l *LSM) Stats() Stats {
	l.mu.RLock()
	defer l.mu.RUnlock()
	st := Stats{
		Backend:     "lsm",
		Certs:       l.mem.certs,
		Postings:    uint64(len(l.mem.keys)),
		MemPostings: len(l.mem.keys),
		Segments:    len(l.segments),
		Flushes:     l.flushes.Load(),
		Compactions: l.compactions.Load(),
	}
	if len(l.damaged) > 0 {
		st.Damaged = append(st.Damaged, l.damaged...)
	}
	for _, s := range l.segments {
		st.Certs += s.certs
		st.Postings += uint64(len(s.keys))
	}
	return st
}

// Close flushes the memtable (so a graceful shutdown loses nothing the
// fleet already checkpointed past) and stops the compactor.
func (l *LSM) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	err := l.flushLocked()
	l.mu.Unlock()
	close(l.compactKick)
	<-l.compactDone
	return err
}
