package obs

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// journalEventFixtures is one representative payload per journal event
// type emitted anywhere in the tree. The golden test freezes the exact
// serialized form of each; adding an event type means adding a fixture
// here and regenerating the golden (UPDATE_GOLDEN=1 go test ./internal/obs
// -run JournalGolden).
var journalEventFixtures = []struct {
	typ   string
	attrs map[string]any
}{
	{"monitor.sync.start", map[string]any{"log": "alpha", "tree_size": 1000, "resume_from": 256}},
	{"monitor.sync.end", map[string]any{"log": "alpha", "fetched": 744, "deduped": 3, "quarantined": 1, "skipped": 1, "bisections": 4, "retries": 2, "interrupted": false}},
	{"monitor.bisect", map[string]any{"log": "alpha", "lo": 64, "hi": 80}},
	{"monitor.skip", map[string]any{"log": "alpha", "index": 77}},
	{"monitor.quarantine", map[string]any{"log": "alpha", "index": 77, "err": "parse: bad DER"}},
	{"checkpoint.persist", map[string]any{"log": "alpha", "index": 512}},
	{"checkpoint.restore", map[string]any{"log": "alpha", "index": 256}},
	{"fleet.log_state", map[string]any{"log": "bravo", "from": "healthy", "to": "degraded", "restarts": 1}},
	{"fleet.state", map[string]any{"from": "healthy", "to": "degraded", "healthy": 3, "total": 4}},
	{"breaker.transition", map[string]any{"name": "charlie", "from": "closed", "to": "open"}},
	{"serve.shed", map[string]any{"name": "alpha", "reason": "rate"}},
	{"serve.state", map[string]any{"from": "serving", "to": "draining"}},
	{"pipeline.quarantine", map[string]any{"slot": 3, "index": 12345, "stage": "lint"}},
	{"slo.transition", map[string]any{"slo": "fleet_freshness", "from": "ok", "to": "page", "burn_fast": 2.5, "burn_slow": 2.1}},
	{"flight.dump", map[string]any{"reason": "sigquit", "path": "/tmp/flight-1-sigquit.jsonl"}},
	{"checkpoint.persist_error", map[string]any{"log": "alpha", "index": 512, "err": "monitor: saving checkpoint: no space left on device"}},
}

// TestJournalGolden pins the JSONL wire format: the schema version,
// envelope field names, and per-type attribute shapes. A JournalSchema
// bump — or any envelope change — fails this test until the fixture is
// deliberately regenerated, which is the point: journal consumers
// (soakcheck replay, operator tooling) parse these bytes.
func TestJournalGolden(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf, nil)
	clock := time.Unix(1700000000, 0).UTC()
	j.now = func() time.Time {
		clock = clock.Add(time.Second)
		return clock
	}
	for _, f := range journalEventFixtures {
		j.Emit(context.Background(), f.typ, f.attrs)
	}

	const goldenPath = "testdata/journal.golden"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(golden) {
		t.Fatalf("journal format drift (regenerate with UPDATE_GOLDEN=1 only if the schema change is intentional)\n--- got ---\n%s--- want ---\n%s", buf.String(), golden)
	}
	// The golden itself must carry the current schema version on every
	// line — a bump without regeneration breaks above, a regeneration
	// without a bump breaks here if the envelope changed shape.
	for i, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		if !strings.Contains(line, `"v":1`) {
			t.Fatalf("golden line %d missing schema version: %s", i+1, line)
		}
	}
	if JournalSchema != 1 {
		t.Fatalf("JournalSchema = %d but golden pins v1 — regenerate the fixtures with the new schema", JournalSchema)
	}
}

func TestJournalSpanStitching(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf, nil)
	tr := NewTracer(8)
	ctx, sp := tr.Start(context.Background(), "sync")
	j.Emit(ctx, "monitor.sync.start", map[string]any{"log": "alpha"})
	sp.End()
	evs, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Span != sp.ID() || evs[0].Span == 0 {
		t.Fatalf("events = %+v, want span %d", evs, sp.ID())
	}
	// A context without a span (or nil) serializes with the span field
	// omitted entirely.
	buf.Reset()
	j.Emit(nil, "serve.state", nil)
	if strings.Contains(buf.String(), `"span"`) {
		t.Fatalf("spanless event leaked span field: %s", buf.String())
	}
}

func TestJournalMetricsAndNilSafety(t *testing.T) {
	reg := NewRegistry()
	var buf bytes.Buffer
	j := NewJournal(&buf, reg)
	j.Emit(context.Background(), "a", nil)
	j.Emit(context.Background(), "b", map[string]any{"k": 1})
	if v, _ := reg.Sample("journal_events_total"); v != 2 {
		t.Fatalf("journal_events_total = %v, want 2", v)
	}
	evs, err := ReadJournal(&buf)
	if err != nil || len(evs) != 2 {
		t.Fatalf("read back %d events err=%v", len(evs), err)
	}
	if evs[0].Seq != 1 || evs[1].Seq != 2 || evs[1].Type != "b" {
		t.Fatalf("events = %+v", evs)
	}

	var nilJ *Journal
	nilJ.Emit(context.Background(), "x", nil)
	if err := nilJ.Close(); err != nil {
		t.Fatal(err)
	}

	// A failing writer counts the error and keeps going.
	bad := NewJournal(writerFunc(func(p []byte) (int, error) {
		return 0, os.ErrClosed
	}), reg)
	bad.Emit(nil, "x", nil)
	if v, _ := reg.Sample("journal_write_errors_total"); v != 1 {
		t.Fatalf("journal_write_errors_total = %v, want 1", v)
	}
}

func TestOpenJournalAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	j1, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	j1.Emit(nil, "monitor.sync.start", map[string]any{"log": "a"})
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	// A second open extends, never truncates: one continuous history
	// across process restarts.
	j2, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	j2.Emit(nil, "monitor.sync.end", map[string]any{"log": "a"})
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := ReadJournal(f)
	if err != nil || len(evs) != 2 {
		t.Fatalf("read back %d events err=%v", len(evs), err)
	}
	if evs[0].Type != "monitor.sync.start" || evs[1].Type != "monitor.sync.end" {
		t.Fatalf("events = %+v", evs)
	}
}
