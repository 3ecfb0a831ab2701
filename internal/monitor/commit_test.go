package monitor

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ctlog"
	"repro/internal/obs"
)

// TestCommitCutAndRetry drives Commit directly over a crawl whose Sink
// forwards every entry, so the crawl only stages (batches of 16 stage
// boundaries at 16, 32 and 48). A commit takes the newest boundary the
// Handled count covers, runs the hook only when it has something to
// publish, and a failed commit — store or hook — publishes nothing,
// journals the failure and keeps the staged boundaries for the retry.
func TestCommitCutAndRetry(t *testing.T) {
	const total = 48
	log, _ := chaosLog(t, 17, total, 0)
	srv := httptest.NewServer((&ctlog.Server{Log: log}).Handler())
	defer srv.Close()

	dir := t.TempDir()
	var journal bytes.Buffer
	good := SyncOptions{
		Batch: 16, Name: "solo", Journal: obs.NewJournal(&journal, nil),
		Checkpoints: &FileCheckpointStore{Path: filepath.Join(dir, "cp")},
		Sink:        func(ctlog.Entry) (SinkAction, error) { return SinkForward, nil },
	}
	bad := good
	bad.Checkpoints = &FileCheckpointStore{Path: filepath.Join(dir, "no", "such", "dir", "cp")}

	m := New(Monitors()[0])
	stats, err := m.SyncFromLog(context.Background(), fastChaosClient(srv.URL, nil), good)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Forwarded != total {
		t.Fatalf("forwarded %d, want %d", stats.Forwarded, total)
	}
	durable := func() int {
		cp, ok, err := good.Checkpoints.Load()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return -1
		}
		return cp.NextIndex
	}
	if got := durable(); got != -1 {
		t.Fatalf("a crawl with a Sink persisted checkpoint %d on its own", got)
	}

	hookCalls := 0
	hook := func() error { hookCalls++; return nil }
	commit := func(opts SyncOptions, handled int64, hook func() error) error {
		return Commit(context.Background(), []CommitTarget{{Monitor: m, Opts: opts, Handled: handled}}, hook)[0]
	}

	// Nothing handled yet: no boundary qualifies, the hook stays idle.
	if err := commit(good, 0, hook); err != nil || hookCalls != 0 || durable() != -1 {
		t.Fatalf("commit with nothing handled: err %v, hook calls %d, durable %d", err, hookCalls, durable())
	}
	// A failing store publishes nothing and keeps the boundaries.
	if err := commit(bad, 20, hook); err == nil {
		t.Fatal("commit through an unwritable store succeeded")
	}
	if hookCalls != 1 || m.Committed() != 0 {
		t.Fatalf("after a failed commit: hook calls %d, committed %d", hookCalls, m.Committed())
	}
	// 20 handled covers the boundary at 16, not the one at 32.
	if err := commit(good, 20, hook); err != nil {
		t.Fatal(err)
	}
	if durable() != 16 || m.Committed() != 16 {
		t.Fatalf("durable %d committed %d, want 16", durable(), m.Committed())
	}
	// A failing hook stops the writes.
	if err := commit(good, total, func() error { return errors.New("flush failed") }); err == nil || durable() != 16 {
		t.Fatalf("hook failure: err %v, durable %d (want an error and 16)", err, durable())
	}
	if err := commit(good, total, hook); err != nil || durable() != total {
		t.Fatalf("retry: err %v, durable %d, want %d", err, durable(), total)
	}
	// Everything is published: nothing left to commit.
	if err := commit(good, total, hook); err != nil || hookCalls != 3 {
		t.Fatalf("idle commit: err %v, hook calls %d, want 3", err, hookCalls)
	}

	text := journal.String()
	if got := strings.Count(text, `"checkpoint.persist_error"`); got != 2 {
		t.Fatalf("%d checkpoint.persist_error events, want 2", got)
	}
	if got := strings.Count(text, `"checkpoint.persist"`); got != 2 {
		t.Fatalf("%d checkpoint.persist events, want 2 (at 16 and %d)", got, total)
	}
}
