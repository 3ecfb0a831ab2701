package monitor

// Group commit of crawl progress. A crawl does not persist its resume
// point after every batch: each batch only *stages* a boundary in
// memory — the next index, the tree size, and under audit a copy of
// the verified mirror's compact range at that moment — and Commit
// later publishes the newest boundary that is safe to publish.
//
// Safe means durable downstream. A crawl that indexes locally owns its
// entries, so every staged boundary qualifies. A crawl with a Sink
// (fleet mode) has handed its entries to a consumer, and a boundary
// qualifies only once the consumer has handled every entry forwarded
// below it; the commit hook then makes that handled work durable (the
// fleet wires it to the index flush) before any file moves. The order
// inside one commit is fixed: read every cut, run the hook once, then
// per crawl write the anchor and after it the checkpoint, each through
// durable.WriteFile. A kill at any point therefore leaves a checkpoint
// that never points past an entry the index could lose, and a mirror
// that is never behind the checkpoint.
//
// A failed commit keeps its staged boundaries, so the next commit
// retries from them; the crawl itself never stops for a failed commit.

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// commitEvery is how often a crawl that owns its commits (no Sink)
// publishes its newest boundary while it runs; it also commits on
// exit.
const commitEvery = time.Second

// boundary is one staged crawl position.
type boundary struct {
	cp Checkpoint
	// anchor is the verified mirror when the boundary was staged (audit
	// mode with an STHStore); nil otherwise.
	anchor *VerifiedSTH
	// forwarded is how many entries the monitor had handed to a Sink
	// when the boundary was staged.
	forwarded int64
}

// progress is a monitor's staged and committed crawl positions. The
// crawl goroutine stages; one committer at a time publishes.
type progress struct {
	mu     sync.Mutex
	staged []boundary // oldest first, all past the last commit
	// committed is the next index of the last published checkpoint,
	// read by gauges from any goroutine.
	committed atomic.Int64
}

// stage records the crawl's current position as a commit candidate.
// Nothing touches the disk here.
func (m *Monitor) stage(treeSize int, opts *SyncOptions) {
	withAnchor := opts.Audit && opts.STHStore != nil && m.audit != nil
	if opts.Checkpoints == nil && !withAnchor {
		return
	}
	b := boundary{
		cp:        Checkpoint{NextIndex: m.nextIndex, TreeSize: treeSize, UpdatedAt: time.Now()},
		forwarded: m.forwarded,
	}
	if withAnchor {
		t := m.audit.tree
		b.anchor = &VerifiedSTH{Size: t.Size(), Root: t.Root(), Hashes: t.Hashes(), UpdatedAt: b.cp.UpdatedAt}
	}
	m.progress.mu.Lock()
	m.progress.staged = append(m.progress.staged, b)
	m.progress.mu.Unlock()
}

// Committed returns the next index of the last checkpoint a commit
// published (or restored at crawl start): every entry below it is
// durable. Safe to call from any goroutine; compare it with Checkpoint
// to see how far durable state lags the crawl.
func (m *Monitor) Committed() int { return int(m.progress.committed.Load()) }

// cut returns the position of the newest staged boundary whose
// forwarded entries have all been handled, or -1.
func (p *progress) cut(handled int64) (int, boundary) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.staged) - 1; i >= 0; i-- {
		if p.staged[i].forwarded <= handled {
			return i, p.staged[i]
		}
	}
	return -1, boundary{}
}

// release drops the staged boundaries up to and including position i
// after they were published. Boundaries staged since the cut are only
// ever appended, so position i still names the published one.
func (p *progress) release(i int) {
	p.mu.Lock()
	p.staged = append(p.staged[:0], p.staged[i+1:]...)
	p.mu.Unlock()
}

// CommitTarget is one crawl taking part in a Commit.
type CommitTarget struct {
	// Monitor holds the crawl's staged boundaries.
	Monitor *Monitor
	// Opts is the crawl's SyncOptions: its Checkpoints and STHStore
	// receive the commit, and its Journal and Name label the events.
	Opts SyncOptions
	// Handled counts the entries forwarded to the crawl's Sink whose
	// handling has returned, read before Commit is called. A boundary
	// is committed only when no entry forwarded below it is still in
	// flight. A crawl without a Sink forwards nothing; pass 0.
	Handled int64
}

// Commit publishes each target's newest committable boundary. It reads
// every cut first, then runs hook once (when any target has something
// to commit) so that everything the cuts cover is durable downstream,
// then writes each target's anchor and after it its checkpoint. It
// returns one error per target: nil when the target committed or had
// nothing to commit. A hook error fails every target that had a cut,
// and a failed target keeps its staged boundaries for the next Commit.
// Each failure is journaled as checkpoint.persist_error; counting it is
// the caller's job. Commits of one monitor must not run concurrently.
func Commit(ctx context.Context, targets []CommitTarget, hook func() error) []error {
	errs := make([]error, len(targets))
	cuts := make([]int, len(targets))
	bounds := make([]boundary, len(targets))
	pending := false
	for i, t := range targets {
		cuts[i], bounds[i] = t.Monitor.progress.cut(t.Handled)
		pending = pending || cuts[i] >= 0
	}
	if !pending {
		return errs
	}
	var hookErr error
	if hook != nil {
		hookErr = hook()
	}
	for i, t := range targets {
		if cuts[i] < 0 {
			continue
		}
		err := hookErr
		if err == nil {
			err = publish(bounds[i], t.Opts)
		}
		b := bounds[i]
		if err != nil {
			errs[i] = err
			t.Opts.Journal.Emit(ctx, "checkpoint.persist_error", map[string]any{
				"log": t.Opts.Name, "index": b.cp.NextIndex, "err": err.Error(),
			})
			continue
		}
		t.Monitor.progress.release(cuts[i])
		if t.Opts.Checkpoints == nil {
			continue
		}
		if prev := t.Monitor.progress.committed.Swap(int64(b.cp.NextIndex)); prev != int64(b.cp.NextIndex) {
			t.Opts.Journal.Emit(ctx, "checkpoint.persist", map[string]any{
				"log": t.Opts.Name, "index": b.cp.NextIndex,
			})
		}
	}
	return errs
}

// publish writes one boundary: the anchor first, then the checkpoint.
// If the process dies between the two, a mirror ahead of the
// checkpoint is re-proven per entry on resume, while a checkpoint
// ahead of the mirror would force a re-anchor refetch.
func publish(b boundary, opts SyncOptions) error {
	if b.anchor != nil {
		if err := opts.STHStore.Save(*b.anchor); err != nil {
			return err
		}
	}
	if opts.Checkpoints != nil {
		return opts.Checkpoints.Save(b.cp)
	}
	return nil
}
