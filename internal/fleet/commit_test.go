package fleet

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ctlog"
	"repro/internal/monitor"
	"repro/internal/obs"
)

// loadCheckpoint reads a log's durable checkpoint (ok false: none).
// Safe to call from a Commit hook's goroutine.
func loadCheckpoint(t *testing.T, dir, name string) (monitor.Checkpoint, bool) {
	t.Helper()
	cp, ok, err := (&monitor.FileCheckpointStore{Path: filepath.Join(dir, name+".ckpt")}).Load()
	if err != nil {
		t.Error(err)
	}
	return cp, ok
}

// loadAnchor reads a log's durable verified-head anchor (ok false:
// none). Safe to call from a Commit hook's goroutine.
func loadAnchor(t *testing.T, dir, name string) (monitor.VerifiedSTH, bool) {
	t.Helper()
	v, ok, err := (&monitor.FileSTHStore{Path: filepath.Join(dir, name+".sth")}).Load()
	if err != nil {
		t.Error(err)
	}
	return v, ok
}

// waitFor polls cond until it holds or the test times out.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFleetCommitWaitsForHandle blocks HandleSourced on entry k and
// lets the crawl run ahead into the bounded feed: a forced commit must
// not persist the checkpoint past k, because entry k and everything
// queued behind it could still be lost. With batches of 4 the crawl has
// staged boundaries at 4, 8 and 12 by then and entries 0..10 have
// returned, so the commit takes exactly 8: the boundary at 12 lacks
// only entry k itself. The debug report and fleet_log_committed show
// the lag; once the handler is released the run commits the log's end.
func TestFleetCommitWaitsForHandle(t *testing.T) {
	const perLog, k = 40, 11
	dir := t.TempDir()
	reg := obs.NewRegistry()
	blocked, release := make(chan struct{}), make(chan struct{})
	c, err := New(Config{
		Logs:          []LogSpec{{Name: "alpha", Client: fastClient(serveLog(t, 701, ders(t, "cw", perLog)), nil), Batch: 4}},
		CheckpointDir: dir,
		QueueDepth:    4,
		Obs:           reg,
		Sleep:         noSleep,
		HandleSourced: func(log string, e ctlog.Entry) {
			if e.Index == k {
				close(blocked)
				<-release
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.commitEvery = time.Hour // only the forced commit and Run's last one
	type runOut struct {
		res *Result
		err error
	}
	done := make(chan runOut, 1)
	go func() {
		res, err := c.Run(context.Background())
		done <- runOut{res, err}
	}()

	<-blocked
	w := c.workers[0]
	// Entry 13 sunk means the boundary at 12 is staged.
	waitFor(t, "the crawl to run ahead of the blocked handler", func() bool { return w.checkpoint.Load() >= 14 })
	c.commit()
	cp, ok := loadCheckpoint(t, dir, "alpha")
	if !ok {
		t.Fatal("forced commit persisted no checkpoint")
	}
	if cp.NextIndex > k {
		t.Fatalf("checkpoint committed at %d while entry %d is still in Handle", cp.NextIndex, k)
	}
	if cp.NextIndex != 8 {
		t.Fatalf("checkpoint committed at %d, want 8 (the newest fully handled boundary)", cp.NextIndex)
	}
	if got, _ := reg.Sample("fleet_log_committed", "log", "alpha"); got != 8 {
		t.Fatalf("fleet_log_committed = %v, want 8", got)
	}
	rep := c.debugReport(nil, nil)
	if row := rep.Logs[0]; row.Committed != 8 || row.Checkpoint <= int64(row.Committed) {
		t.Fatalf("debug row checkpoint %d committed %d, want committed 8 behind the crawl", row.Checkpoint, row.Committed)
	}

	close(release)
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.res.UniqueEntries != perLog {
		t.Fatalf("unique = %d, want %d", out.res.UniqueEntries, perLog)
	}
	if cp, _ := loadCheckpoint(t, dir, "alpha"); cp.NextIndex != perLog {
		t.Fatalf("final checkpoint %d, want %d", cp.NextIndex, perLog)
	}
}

// TestFleetCommitHookRunsFirst checks the commit order from inside the
// Commit hook: when it runs, neither file of the commit it belongs to
// has been written yet. The first commit therefore finds no
// checkpoint and no anchor at all, and every later one finds exactly
// the previous commit's checkpoint with an anchor that is not behind
// it.
func TestFleetCommitHookRunsFirst(t *testing.T) {
	const perLog = 24
	ckptDir, sthDir := t.TempDir(), t.TempDir()
	var c *Coordinator
	var calls atomic.Int32
	hook := func() error {
		first := calls.Add(1) == 1
		for _, w := range c.workers {
			name := w.spec.Name
			cp, ok := loadCheckpoint(t, ckptDir, name)
			v, okv := loadAnchor(t, sthDir, name)
			switch {
			case first && (ok || okv):
				t.Errorf("%s: first Commit hook found checkpoint %v / anchor %v already written", name, ok, okv)
			case ok && cp.NextIndex != w.mon.Committed():
				t.Errorf("%s: hook found checkpoint %d, previous commit was %d", name, cp.NextIndex, w.mon.Committed())
			case ok && (!okv || v.Size < cp.NextIndex):
				t.Errorf("%s: anchor (ok %v, size %d) behind checkpoint %d", name, okv, v.Size, cp.NextIndex)
			}
		}
		return nil
	}
	var err error
	c, err = New(Config{
		Logs: []LogSpec{
			{Name: "alpha", Client: fastClient(serveLog(t, 711, ders(t, "ho-a", perLog)), nil), Batch: 4},
			{Name: "bravo", Client: fastClient(serveLog(t, 712, ders(t, "ho-b", perLog)), nil), Batch: 4},
		},
		CheckpointDir: ckptDir,
		Audit:         true,
		STHStoreDir:   sthDir,
		Sleep:         noSleep,
		Handle:        func(ctlog.Entry) { time.Sleep(time.Millisecond) },
		Commit:        hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.commitEvery = 5 * time.Millisecond
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n < 2 {
		t.Fatalf("Commit hook ran %d times, want several commits", n)
	}
	for _, name := range []string{"alpha", "bravo"} {
		cp, _ := loadCheckpoint(t, ckptDir, name)
		v, _ := loadAnchor(t, sthDir, name)
		if cp.NextIndex != perLog || v.Size != perLog {
			t.Fatalf("%s: final checkpoint %d anchor %d, want %d", name, cp.NextIndex, v.Size, perLog)
		}
	}
}

// TestFleetCommitFailureRetries fails commits two ways — the Commit
// hook returns an error, or the anchor directory stops being writable —
// and requires each failure to be counted in the failing log's
// SyncStats and in monitor_checkpoint_persist_errors_total, journaled
// as checkpoint.persist_error, and survived: the crawl neither aborts
// nor restarts, and a later commit persists each log's end from the
// boundaries the failed commits kept staged.
func TestFleetCommitFailureRetries(t *testing.T) {
	const perLog = 24
	for _, tc := range []struct {
		name string
		// fail is called at the start of the n-th Commit hook call and
		// returns the hook's error.
		fail func(n int32, sthDir string) error
	}{
		{"hook", func(n int32, _ string) error {
			if n <= 2 {
				return errors.New("index flush failed")
			}
			return nil
		}},
		{"unwritable-dir", func(n int32, sthDir string) error {
			// A regular file in the directory's place makes every anchor
			// write fail until the directory is put back.
			switch n {
			case 1:
				if err := os.Rename(sthDir, sthDir+".away"); err != nil {
					return err
				}
				return os.WriteFile(sthDir, nil, 0o644)
			case 2:
				if err := os.Remove(sthDir); err != nil {
					return err
				}
				return os.Rename(sthDir+".away", sthDir)
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ckptDir := t.TempDir()
			sthDir := filepath.Join(t.TempDir(), "sth")
			reg := obs.NewRegistry()
			var journal bytes.Buffer
			var calls atomic.Int32
			c, err := New(Config{
				Logs: []LogSpec{
					{Name: "alpha", Client: fastClient(serveLog(t, 721, ders(t, "fr-a", perLog)), nil), Batch: 4},
					{Name: "bravo", Client: fastClient(serveLog(t, 722, ders(t, "fr-b", perLog)), nil), Batch: 4},
				},
				CheckpointDir: ckptDir,
				Audit:         true,
				STHStoreDir:   sthDir,
				Obs:           reg,
				Journal:       obs.NewJournal(&journal, nil),
				Sleep:         noSleep,
				Handle:        func(ctlog.Entry) { time.Sleep(time.Millisecond) },
				Commit:        func() error { return tc.fail(calls.Add(1), sthDir) },
			})
			if err != nil {
				t.Fatal(err)
			}
			c.commitEvery = 5 * time.Millisecond
			res, err := c.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.Interrupted || res.FinalState != Healthy.String() {
				t.Fatalf("run interrupted=%v state=%s, want a healthy finish", res.Interrupted, res.FinalState)
			}
			if n := calls.Load(); n < 3 {
				t.Fatalf("Commit hook ran %d times; the test needs a failed commit and a retry", n)
			}
			cpErrors := 0
			for _, name := range []string{"alpha", "bravo"} {
				rep := res.Logs[name]
				if rep.Restarts != 0 || rep.Stats.Fetched != perLog {
					t.Errorf("%s: restarts %d fetched %d, want 0 and %d (a failed commit must not disturb the crawl)",
						name, rep.Restarts, rep.Stats.Fetched, perLog)
				}
				cpErrors += rep.Stats.CheckpointErrors
				cp, _ := loadCheckpoint(t, ckptDir, name)
				v, _ := loadAnchor(t, sthDir, name)
				if cp.NextIndex != perLog || v.Size != perLog {
					t.Errorf("%s: final checkpoint %d anchor %d, want %d (retry after failure)", name, cp.NextIndex, v.Size, perLog)
				}
			}
			// Which logs had a cut when a commit failed depends on timing;
			// that at least one failure was counted does not.
			if cpErrors == 0 {
				t.Error("CheckpointErrors = 0 on every log after failed commits")
			}
			if got := reg.Counter("monitor_checkpoint_persist_errors_total").Value(); got != uint64(cpErrors) {
				t.Errorf("monitor_checkpoint_persist_errors_total = %d, SyncStats say %d", got, cpErrors)
			}
			events, err := obs.ReadJournal(&journal)
			if err != nil {
				t.Fatal(err)
			}
			journaled, hookErrs := 0, 0
			for _, ev := range events {
				if ev.Type != "checkpoint.persist_error" {
					continue
				}
				journaled++
				msg, _ := ev.Attrs["err"].(string)
				if msg == "" || ev.Attrs["log"] == nil {
					t.Errorf("persist_error event lacks log/err: %v", ev.Attrs)
				}
				if strings.Contains(msg, "index flush failed") {
					hookErrs++
				}
			}
			if journaled != cpErrors {
				t.Errorf("journaled %d checkpoint.persist_error events, counted %d failures", journaled, cpErrors)
			}
			if tc.name == "hook" && hookErrs != journaled {
				t.Errorf("%d of %d persist_error events carry the hook's error", hookErrs, journaled)
			}
		})
	}
}

// TestFleetCommitsOncePerInterval: with the default interval a short
// run commits only at its end, so each log persists its checkpoint
// once instead of after every batch.
func TestFleetCommitsOncePerInterval(t *testing.T) {
	var journal bytes.Buffer
	var mu sync.Mutex
	commits := 0
	c, err := New(Config{
		Logs: []LogSpec{
			{Name: "alpha", Client: fastClient(serveLog(t, 731, ders(t, "oi-a", 32)), nil), Batch: 4},
			{Name: "bravo", Client: fastClient(serveLog(t, 732, ders(t, "oi-b", 32)), nil), Batch: 4},
		},
		CheckpointDir: t.TempDir(),
		Journal:       obs.NewJournal(&journal, nil),
		Sleep:         noSleep,
		Commit: func() error {
			mu.Lock()
			commits++
			mu.Unlock()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) >= commitInterval {
		t.Skip("run outlasted the commit interval; periodic commits are expected")
	}
	if persists := strings.Count(journal.String(), `"checkpoint.persist"`); commits != 1 || persists != 2 {
		t.Fatalf("%d commits and %d checkpoint.persist events for 16 batches, want 1 and 2", commits, persists)
	}
}
