package monitor

// Log synchronization: monitors crawl a CT log through its RFC
// 6962-style HTTP API and index what they can parse — the pipeline
// whose gaps the §6.1 threat model exploits. Prior work found
// third-party monitors miss certificates, and not only through
// Unicode tricks: crawl aborts, transport failures, and poisoned
// entries leave the same holes. The crawl here therefore degrades
// gracefully instead of aborting — progress is checkpointed so a
// later call resumes where the last one stopped, transient failures
// are retried inside ctlog.Client, and a batch that fails
// deterministically is bisected down to the single poisoned entry,
// which is skipped and accounted for rather than sinking the crawl.

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/ctlog"
	"repro/internal/obs"
	"repro/internal/x509cert"
)

// SyncOptions tunes one crawl.
type SyncOptions struct {
	// Batch is the entries-per-request window (default 64). The server
	// may clamp it further; sync advances by what actually arrived.
	Batch int
	// STHRetries is how many times the initial get-sth is re-attempted
	// at the crawl level when it fails non-retryably, e.g. with a
	// corrupted body the HTTP-level retry policy will not refetch
	// (default 3; negative disables).
	STHRetries int
	// Checkpoints, when non-nil, makes the crawl crash-safe: every
	// ingested batch stages its resume point in memory, a group commit
	// persists the newest staged point that is durable downstream (see
	// commit.go), and the persisted point is restored (for a monitor
	// with no in-memory progress) before the crawl starts, so a killed
	// process resumes where it last committed instead of refetching the
	// log. A crawl without a Sink commits itself about once a second
	// and on exit; a crawl with a Sink leaves commits to the Sink's
	// owner, who alone knows when forwarded entries are durable.
	// Commit failures degrade the crawl (counted in
	// SyncStats.CheckpointErrors and
	// monitor_checkpoint_persist_errors_total), they do not abort it.
	Checkpoints CheckpointStore
	// Obs, when non-nil, receives the crawl instruments
	// (monitor_entries_synced_total, monitor_entries_per_sec,
	// monitor_checkpoint, monitor_checkpoint_age_seconds, …).
	Obs *obs.Registry
	// Tracer, when non-nil, records the crawl's span tree: one
	// monitor.sync root, bisect spans for isolation splits, skip-entry
	// spans for poisoned entries, and (when the client shares the
	// tracer) the per-request attempt/backoff spans beneath them.
	Tracer *obs.Tracer
	// Sink, when non-nil, intercepts every fetched non-precert entry
	// BEFORE the checkpoint advances past it and before the local
	// parse/index step. Its owner commits the crawl's progress (Commit
	// with the count of forwarded entries it has handled); the crawl
	// only stages it. It is how a fleet coordinator dedups entries
	// across logs and applies global backpressure: a Sink that blocks
	// on a bounded channel slows this crawl down to the consumer's
	// pace. Returning SinkIngest keeps the normal parse/index path;
	// SinkForward and SinkDuplicate skip it (the entry was consumed
	// elsewhere, or is a cross-log duplicate, counted in
	// SyncStats.Forwarded / SyncStats.Deduped). A non-nil error aborts
	// the crawl with the checkpoint still BEFORE the entry, so a resume
	// re-delivers it — an entry is never claimed without being sunk.
	Sink func(e ctlog.Entry) (SinkAction, error)
	// Name labels this crawl's journal events and flight-recorder
	// entries (the log's name in fleet mode; empty for a single-log
	// crawl).
	Name string
	// Journal, when non-nil, receives the crawl's audit events:
	// monitor.sync.start/.end, monitor.bisect, monitor.skip,
	// monitor.quarantine, and checkpoint.persist/.restore, each stamped
	// with the sync span so journal lines stitch to traces.
	Journal *obs.Journal
	// Flight, when non-nil, records fine-grained crawl events (batches,
	// bisects, skips, quarantines) into the "monitor" flight ring and
	// triggers a dump when an entry is quarantined.
	Flight *obs.Flight
	// Audit makes the crawl auditing-grade: every batch must prove
	// consistency with the signed tree head before any entry reaches a
	// sink or the index, every STH advance must prove consistency with
	// the last verified head, and an entry the tree cannot be verified
	// past aborts the crawl (wrapping ErrProofFailure) instead of
	// being skipped. See audit.go.
	Audit bool
	// STHStore, when non-nil (and Audit is set), persists the verified
	// tree head so consistency auditing survives restarts; a resume
	// re-anchors on the verified head. It is written by the same commit
	// as the checkpoint, just before it.
	STHStore STHStore
	// ProofRetries is how many times a failing proof is refetched
	// before the failure becomes an incident (default 3; negative
	// disables).
	ProofRetries int
}

// SinkAction is a Sink's verdict on one fetched entry.
type SinkAction int

// Sink verdicts.
const (
	// SinkIngest runs the normal local parse/index path.
	SinkIngest SinkAction = iota
	// SinkForward means the sink consumed the entry (e.g. forwarded it
	// into a fleet pipeline); local indexing is skipped.
	SinkForward
	// SinkDuplicate marks a cross-log duplicate: skipped locally and
	// counted in SyncStats.Deduped.
	SinkDuplicate
)

func (o SyncOptions) batch() int {
	if o.Batch > 0 {
		return o.Batch
	}
	return 64
}

func (o SyncOptions) sthRetries() int {
	switch {
	case o.STHRetries > 0:
		return o.STHRetries
	case o.STHRetries < 0:
		return 0
	}
	return 3
}

func (o SyncOptions) proofRetries() int {
	switch {
	case o.ProofRetries > 0:
		return o.ProofRetries
	case o.ProofRetries < 0:
		return 0
	}
	return 3
}

// SyncStats summarizes one crawl.
type SyncStats struct {
	Fetched     int
	Precerts    int
	ParseErrors int
	Indexed     int
	// Retries counts HTTP-level retry attempts the client performed on
	// this crawl's behalf.
	Retries int
	// SkippedEntries counts entries abandoned after bisection isolated
	// them as individually unfetchable (poisoned encodings).
	SkippedEntries int
	// Forwarded counts entries a SyncOptions.Sink consumed instead of
	// the local index (fleet mode: first-seen entries fed downstream).
	Forwarded int
	// Deduped counts entries a SyncOptions.Sink identified as cross-log
	// duplicates; they are fetched (so checkpoint accounting is exact)
	// but not parsed or indexed.
	Deduped int
	// Quarantined counts entries whose parse or index step panicked;
	// the panic is contained per entry and the crawl continues.
	Quarantined int
	// CheckpointErrors counts failed checkpoint persistence attempts
	// (the crawl continues; only durability degrades).
	CheckpointErrors int
	// Bisections counts range splits performed while isolating
	// failures.
	Bisections int
	// Audited counts entries claimed only after Merkle verification
	// (Audit mode). The crawl's contract is Audited == Fetched −
	// SkippedEntries whenever Audit is on — and audit mode never
	// skips, so Audited == Fetched.
	Audited int
	// ProofFailures counts proof-failure incidents: inclusion or
	// consistency proofs that did not verify, or entries the tree
	// could not be verified past (see monitor_proof_failures_total).
	ProofFailures int
	// ResumedFrom is the checkpoint the crawl started at; 0 means a
	// fresh crawl.
	ResumedFrom int
	// Duration is the wall-clock time of the crawl.
	Duration time.Duration
}

// syncMetrics bundles the crawl's instrument handles; the zero value
// (all nil) is a valid no-op because every obs method is nil-safe.
type syncMetrics struct {
	synced      *obs.Counter // monitor_entries_synced_total (= SyncStats.Fetched)
	indexed     *obs.Counter // monitor_entries_indexed_total
	precerts    *obs.Counter // monitor_precerts_total
	parseErrors *obs.Counter // monitor_parse_errors_total
	skipped     *obs.Counter // monitor_skipped_entries_total
	forwarded   *obs.Counter // monitor_entries_forwarded_total
	deduped     *obs.Counter // monitor_entries_deduped_total
	bisections  *obs.Counter // monitor_bisections_total
	quarantined *obs.Counter // monitor_quarantined_entries_total
	cpErrors    *obs.Counter // monitor_checkpoint_persist_errors_total
	audited     *obs.Counter // monitor_entries_audited_total
	pfInclusion *obs.Counter // monitor_proof_failures_total{kind="inclusion"}
	pfConsist   *obs.Counter // monitor_proof_failures_total{kind="consistency"}
	pfHole      *obs.Counter // monitor_proof_failures_total{kind="hole"}
	perSec      *obs.Gauge   // monitor_entries_per_sec
	checkpoint  *obs.Gauge   // monitor_checkpoint
	treeSize    *obs.Gauge   // monitor_sth_tree_size
	ring        *obs.FlightRing
	start       time.Time
	fetched     int // this crawl's fetch count, for the entries/sec gauge
}

func newSyncMetrics(reg *obs.Registry, m *Monitor) *syncMetrics {
	sm := &syncMetrics{start: time.Now()}
	if reg == nil {
		return sm
	}
	reg.Help("monitor_entries_synced_total", "Log entries fetched by crawls (certificates and precerts).")
	reg.Help("monitor_entries_indexed_total", "Certificates indexed into the monitor.")
	reg.Help("monitor_precerts_total", "Precertificates fetched and filtered (§4.1).")
	reg.Help("monitor_parse_errors_total", "Entries whose DER the lenient parser rejected.")
	reg.Help("monitor_skipped_entries_total", "Entries abandoned after bisection isolated them as poisoned.")
	reg.Help("monitor_entries_forwarded_total", "Entries consumed by a sink (fleet pipeline) instead of the local index.")
	reg.Help("monitor_entries_deduped_total", "Entries a sink identified as cross-log duplicates.")
	reg.Help("monitor_bisections_total", "Range splits performed while isolating failures.")
	reg.Help("monitor_quarantined_entries_total", "Entries whose parse/index step panicked and was contained.")
	reg.Help("monitor_checkpoint_persist_errors_total", "Checkpoint saves that failed (crawl continued).")
	reg.Help("monitor_entries_audited_total", "Entries claimed only after Merkle proof verification (audit mode).")
	reg.Help("monitor_proof_failures_total", "Proof-failure incidents by kind (inclusion, consistency, hole).")
	reg.Help("monitor_entries_per_sec", "Fetch rate of the current (or last) crawl.")
	reg.Help("monitor_checkpoint", "Next log index the crawl will fetch.")
	reg.Help("monitor_checkpoint_age_seconds", "Seconds since the checkpoint last advanced; a growing age means the crawl is stuck.")
	reg.Help("monitor_sth_tree_size", "Tree size of the last fetched STH.")
	sm.synced = reg.Counter("monitor_entries_synced_total")
	sm.indexed = reg.Counter("monitor_entries_indexed_total")
	sm.precerts = reg.Counter("monitor_precerts_total")
	sm.parseErrors = reg.Counter("monitor_parse_errors_total")
	sm.skipped = reg.Counter("monitor_skipped_entries_total")
	sm.forwarded = reg.Counter("monitor_entries_forwarded_total")
	sm.deduped = reg.Counter("monitor_entries_deduped_total")
	sm.bisections = reg.Counter("monitor_bisections_total")
	sm.quarantined = reg.Counter("monitor_quarantined_entries_total")
	sm.cpErrors = reg.Counter("monitor_checkpoint_persist_errors_total")
	sm.audited = reg.Counter("monitor_entries_audited_total")
	sm.pfInclusion = reg.Counter("monitor_proof_failures_total", "kind", ProofFailInclusion)
	sm.pfConsist = reg.Counter("monitor_proof_failures_total", "kind", ProofFailConsistency)
	sm.pfHole = reg.Counter("monitor_proof_failures_total", "kind", ProofFailHole)
	sm.perSec = reg.Gauge("monitor_entries_per_sec")
	sm.checkpoint = reg.Gauge("monitor_checkpoint")
	sm.treeSize = reg.Gauge("monitor_sth_tree_size")
	// Checkpoint age is computed at scrape time; re-registering lets
	// each new crawl take the gauge over from its predecessor.
	reg.GaugeFunc("monitor_checkpoint_age_seconds", func() float64 {
		last := m.lastAdvance.Load()
		if last == 0 {
			return 0
		}
		return time.Since(time.Unix(0, last)).Seconds()
	})
	return sm
}

// proofFailed bumps the proof-failure counter for one incident kind.
func (sm *syncMetrics) proofFailed(kind string) {
	switch kind {
	case ProofFailInclusion:
		sm.pfInclusion.Inc()
	case ProofFailConsistency:
		sm.pfConsist.Inc()
	case ProofFailHole:
		sm.pfHole.Inc()
	}
}

// advanced records crawl progress: fetch counters, checkpoint gauges,
// and the entries/sec rate.
func (sm *syncMetrics) advanced(m *Monitor, fetched int) {
	sm.fetched += fetched
	sm.synced.Add(uint64(fetched))
	sm.checkpoint.Set(float64(m.nextIndex))
	m.lastAdvance.Store(time.Now().UnixNano())
	if secs := time.Since(sm.start).Seconds(); secs > 0 {
		sm.perSec.Set(float64(sm.fetched) / secs)
	}
}

// Checkpoint returns the next log index the monitor will fetch — every
// entry below it has been fetched (indexed, skipped, or rejected) by a
// previous crawl.
func (m *Monitor) Checkpoint() int { return m.nextIndex }

// LastAdvance reports when a crawl last advanced this monitor's
// checkpoint (the zero time if no crawl has run). Safe to call from
// any goroutine while a crawl runs; fleet health evaluation uses it to
// detect a stuck log without touching crawl internals.
func (m *Monitor) LastAdvance() time.Time {
	ns := m.lastAdvance.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// SetCheckpoint restores crawl progress, e.g. from persisted state.
func (m *Monitor) SetCheckpoint(n int) {
	if n < 0 {
		n = 0
	}
	m.nextIndex = n
}

// SyncFromLog crawls the log at client from the monitor's checkpoint
// to the current tree head, skipping precertificates (as the paper's
// §4.1 pipeline does), parsing leniently, and indexing every
// certificate the monitor's capabilities allow. On error the
// checkpoint reflects all completed work, so calling again resumes
// the crawl without refetching indexed entries.
func (m *Monitor) SyncFromLog(ctx context.Context, client *ctlog.Client, opts SyncOptions) (SyncStats, error) {
	started := time.Now()
	retries0 := client.Retries()
	if opts.Checkpoints != nil && m.nextIndex == 0 {
		// A monitor with no in-memory progress adopts the persisted
		// resume point — the crash-recovery path. In-memory progress
		// wins otherwise: it is at least as fresh as any save.
		if cp, ok, err := opts.Checkpoints.Load(); err != nil {
			return SyncStats{}, fmt.Errorf("monitor: loading checkpoint: %w", err)
		} else if ok {
			m.SetCheckpoint(cp.NextIndex)
			m.progress.committed.Store(int64(cp.NextIndex))
			opts.Journal.Emit(ctx, "checkpoint.restore", map[string]any{
				"log": opts.Name, "index": cp.NextIndex,
			})
		}
	}
	if opts.Audit {
		if err := m.ensureAudit(ctx, &opts); err != nil {
			return SyncStats{}, err
		}
		if s := m.audit.tree.Size(); s < m.nextIndex {
			// The verified mirror is behind the checkpoint (lost or torn
			// anchor): re-anchor the crawl on the verified head. The gap
			// is refetched and re-verified; dedup and the index absorb
			// the re-delivery.
			opts.Journal.Emit(ctx, "monitor.audit.reanchor", map[string]any{
				"log": opts.Name, "from": m.nextIndex, "to": s,
			})
			m.SetCheckpoint(s)
		}
	}
	stats := SyncStats{ResumedFrom: m.nextIndex}
	sm := newSyncMetrics(opts.Obs, m)
	sm.ring = opts.Flight.Ring("monitor")
	m.lastAdvance.Store(started.UnixNano())
	ctx, span := opts.Tracer.Start(ctx, "monitor.sync")
	span.SetAttr("resumed_from", strconv.Itoa(m.nextIndex))
	treeSize := 0
	// commit publishes the newest staged boundary when the crawl owns
	// its commits; a crawl with a Sink leaves that to the Sink's owner.
	lastCommit := time.Now()
	commit := func() {
		if opts.Sink != nil {
			return
		}
		lastCommit = time.Now()
		if err := Commit(ctx, []CommitTarget{{Monitor: m, Opts: opts}}, nil)[0]; err != nil {
			stats.CheckpointErrors++
			sm.cpErrors.Inc()
		}
	}
	finish := func(err error) (SyncStats, error) {
		m.stage(treeSize, &opts)
		commit()
		stats.Retries = int(client.Retries() - retries0)
		stats.Duration = time.Since(started)
		span.SetAttr("fetched", strconv.Itoa(stats.Fetched))
		if err != nil {
			span.SetAttr("error", err.Error())
		}
		span.End()
		// The end event carries the full accounting so a journal replay
		// reconciles exactly against SyncStats rollups — it is emitted on
		// every exit path, including context cancellation.
		opts.Journal.Emit(ctx, "monitor.sync.end", map[string]any{
			"log": opts.Name, "fetched": stats.Fetched, "indexed": stats.Indexed,
			"precerts": stats.Precerts, "parse_errors": stats.ParseErrors,
			"forwarded": stats.Forwarded, "deduped": stats.Deduped,
			"quarantined": stats.Quarantined, "skipped": stats.SkippedEntries,
			"bisections": stats.Bisections, "retries": stats.Retries,
			"audited": stats.Audited, "proof_failures": stats.ProofFailures,
			"resumed_from": stats.ResumedFrom, "interrupted": err != nil,
		})
		return stats, err
	}

	size, root, err := m.getSTH(ctx, client, opts)
	if err != nil {
		return finish(fmt.Errorf("monitor: get-sth: %w", err))
	}
	if opts.Audit {
		if err := m.auditSTHAdvance(ctx, client, size, root, &stats, sm, &opts); err != nil {
			return finish(err)
		}
	}
	treeSize = size
	sm.treeSize.Set(float64(size))
	span.SetAttr("tree_size", strconv.Itoa(size))
	opts.Journal.Emit(ctx, "monitor.sync.start", map[string]any{
		"log": opts.Name, "tree_size": size, "resume_from": m.nextIndex,
	})
	sm.ring.Record("sync-start", opts.Name, int64(m.nextIndex), int64(size))
	batch := opts.batch()
	for m.nextIndex < size {
		end := min(m.nextIndex+batch-1, size-1)
		if err := m.syncRange(ctx, client, m.nextIndex, end, &stats, sm, &opts); err != nil {
			return finish(err)
		}
		m.stage(treeSize, &opts)
		if time.Since(lastCommit) >= commitEvery {
			commit()
		}
	}
	return finish(nil)
}

// getSTH fetches the tree head with crawl-level re-attempts layered
// over the client's own HTTP-level retries.
func (m *Monitor) getSTH(ctx context.Context, client *ctlog.Client, opts SyncOptions) (int, ctlog.Hash, error) {
	var lastErr error
	for attempt := 0; attempt <= opts.sthRetries(); attempt++ {
		size, root, err := client.GetSTH(ctx)
		if err == nil {
			return size, root, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return 0, ctlog.Hash{}, lastErr
}

// syncRange fetches and indexes entries [lo, hi]. A fetch that fails
// deterministically (corrupt payload, 4xx) is bisected: halves are
// refetched independently — corrupt-response faults are per-request,
// so a subrange refetch can succeed — and a single entry that still
// fails is skipped and counted. A retryable failure that survived the
// client's whole backoff budget means the log is genuinely down, so
// the crawl aborts with its checkpoint intact rather than skipping
// entries that would have been fetchable later. The checkpoint
// advances past everything handled.
func (m *Monitor) syncRange(ctx context.Context, client *ctlog.Client, lo, hi int, stats *SyncStats, sm *syncMetrics, opts *SyncOptions) error {
	if lo > hi {
		return nil
	}
	tracer := opts.Tracer
	entries, err := client.GetEntries(ctx, lo, hi)
	if err == nil {
		if len(entries) == 0 {
			// A 200 with no entries for a non-empty range would loop
			// forever; treat it as a server bug.
			return fmt.Errorf("monitor: get-entries [%d,%d]: empty response", lo, hi)
		}
		return m.deliver(ctx, client, entries, stats, sm, opts)
	}
	if ctx.Err() != nil || ctlog.IsRetryable(err) {
		return fmt.Errorf("monitor: get-entries [%d,%d]: %w", lo, hi, err)
	}
	if lo == hi {
		// Down to one entry. Non-retryable failures can still be
		// transient (a corrupted response is per-request), so re-attempt
		// a few times before declaring the entry itself poisoned.
		for attempt := 0; attempt < 3; attempt++ {
			entries, err = client.GetEntries(ctx, lo, hi)
			if err == nil && len(entries) > 0 {
				return m.deliver(ctx, client, entries, stats, sm, opts)
			}
			if err != nil && (ctx.Err() != nil || ctlog.IsRetryable(err)) {
				return fmt.Errorf("monitor: get-entries [%d,%d]: %w", lo, hi, err)
			}
		}
		if opts.Audit {
			// An unfetchable entry is a hole the Merkle mirror cannot be
			// verified past: under audit that is an incident, not a skip.
			return m.proofFailure(ctx, ProofFailHole, hi, "entry unfetchable; tree cannot be verified past it", stats, sm, opts)
		}
		// Isolated a persistently poisoned entry: skip it, keep crawling.
		_, skip := tracer.Start(ctx, "skip-entry")
		skip.SetAttr("index", strconv.Itoa(hi))
		skip.End()
		opts.Journal.Emit(ctx, "monitor.skip", map[string]any{"log": opts.Name, "index": hi})
		sm.ring.Record("skip", opts.Name, int64(hi), 0)
		stats.SkippedEntries++
		sm.skipped.Inc()
		m.nextIndex = hi + 1
		sm.advanced(m, 0)
		return nil
	}
	stats.Bisections++
	sm.bisections.Inc()
	bctx, bisect := tracer.Start(ctx, "bisect")
	bisect.SetAttr("lo", strconv.Itoa(lo))
	bisect.SetAttr("hi", strconv.Itoa(hi))
	defer bisect.End()
	opts.Journal.Emit(bctx, "monitor.bisect", map[string]any{"log": opts.Name, "lo": lo, "hi": hi})
	sm.ring.Record("bisect", opts.Name, int64(lo), int64(hi))
	mid := lo + (hi-lo)/2
	if err := m.syncRange(bctx, client, lo, mid, stats, sm, opts); err != nil {
		return err
	}
	// The first half may have been served short of mid (server batch
	// clamp); continue from the checkpoint, not from mid+1.
	return m.syncRange(bctx, client, max(mid+1, m.nextIndex), hi, stats, sm, opts)
}

// deliver gates one fetched batch through Merkle verification (audit
// mode) before ingest may claim any of it: no entry reaches a sink or
// the index without a proof chain to the signed tree head.
func (m *Monitor) deliver(ctx context.Context, client *ctlog.Client, entries []ctlog.Entry, stats *SyncStats, sm *syncMetrics, opts *SyncOptions) error {
	if opts.Audit {
		if err := m.auditBatch(ctx, client, entries, stats, sm, opts); err != nil {
			return err
		}
	}
	return m.ingest(ctx, entries, stats, sm, opts)
}

// ingest indexes one batch of entries, advances the checkpoint, and
// feeds the crawl instruments. A panic from the parse or index step —
// a hostile DER hitting a parser edge case — is contained to that one
// entry (quarantined and counted) so the batch, and the crawl, keep
// going. When opts carries a Sink, each non-precert entry is offered
// to it first; a sink error aborts the batch with the checkpoint still
// before the undelivered entry (work already handled stays claimed).
func (m *Monitor) ingest(ctx context.Context, entries []ctlog.Entry, stats *SyncStats, sm *syncMetrics, opts *SyncOptions) error {
	fetched := 0
	for _, e := range entries {
		if e.Index < m.nextIndex {
			// Overlap with already-crawled work (e.g. a replayed
			// response); never double-index.
			continue
		}
		action := SinkIngest
		if !e.Precert && opts != nil && opts.Sink != nil {
			var err error
			if action, err = opts.Sink(e); err != nil {
				// The checkpoint has NOT advanced past e: a resume
				// re-fetches and re-sinks it.
				sm.advanced(m, fetched)
				return fmt.Errorf("monitor: sink at entry %d: %w", e.Index, err)
			}
		}
		stats.Fetched++
		fetched++
		m.nextIndex = e.Index + 1
		if opts != nil && opts.Audit && m.audit != nil {
			// The batch was verified in deliver; claim the entry into the
			// mirror in lockstep with the checkpoint (entries already in
			// the mirror were individually re-proven, not re-appended).
			if e.Index == m.audit.tree.Size() {
				m.audit.tree.Append(ctlog.LeafHash(e.DER))
			}
			stats.Audited++
			sm.audited.Inc()
		}
		if e.Precert {
			stats.Precerts++
			sm.precerts.Inc()
			continue
		}
		switch action {
		case SinkForward:
			m.forwarded++
			stats.Forwarded++
			sm.forwarded.Inc()
			continue
		case SinkDuplicate:
			stats.Deduped++
			sm.deduped.Inc()
			continue
		}
		switch m.ingestOne(e) {
		case ingestIndexed:
			stats.Indexed++
			sm.indexed.Inc()
		case ingestParseError:
			stats.ParseErrors++
			sm.parseErrors.Inc()
		case ingestQuarantined:
			stats.Quarantined++
			sm.quarantined.Inc()
			sm.ring.Record("quarantine", opts.Name, int64(e.Index), 0)
			opts.Journal.Emit(ctx, "monitor.quarantine", map[string]any{
				"log": opts.Name, "index": e.Index,
			})
			// A contained parser panic is exactly the forensic moment the
			// flight recorder exists for: dump the recent event history.
			// A dump failure must not fail the crawl.
			_, _ = opts.Flight.Trigger("quarantine")
		}
	}
	sm.advanced(m, fetched)
	sm.ring.Record("ingest", opts.Name, int64(m.nextIndex), int64(fetched))
	return nil
}

// ingestOne outcomes.
const (
	ingestIndexed = iota
	ingestParseError
	ingestQuarantined
)

// ingestOne parses and indexes a single entry, converting a panic into
// a quarantined outcome.
func (m *Monitor) ingestOne(e ctlog.Entry) (outcome int) {
	defer func() {
		if recover() != nil {
			outcome = ingestQuarantined
		}
	}()
	cert, err := x509cert.ParseWithMode(e.DER, x509cert.ParseLenient)
	if err != nil {
		return ingestParseError
	}
	m.Index(e.Index, cert)
	return ingestIndexed
}
