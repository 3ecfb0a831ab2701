package main

// Fleet-mode soak verification: two `ctmonitor -logs ... -stats-json`
// outputs, the first SIGTERMed mid-crawl, the second a restarted
// process resuming every log off its own advisory-locked checkpoint
// against identically rebuilt logs.
//
// Asserted acceptance criteria:
//
//   - run 1 was interrupted and never reported the fleet stalled
//     (degraded-not-dead); run 2 completed with every log healthy;
//   - every log resumed exactly where run 1's checkpoint left it —
//     run 2's ResumedFrom equals run 1's fetched+skipped, and run 2
//     fetched exactly the remainder (zero refetch);
//   - entry accounting is exact per log across the kill:
//     fetched + skipped over both runs equals the log size;
//   - cross-log dedup is exact per run: unique + duplicates delivered
//     equals the sum of per-log fetches;
//   - the poisoned log skipped exactly its poisoned indices — across
//     both runs combined — and still ended healthy (bisection
//     quarantines entries, it does not stall the log);
//   - the rate-limited log front ends shed requests
//     (ctlog_server_shed_total > 0 over both runs);
//   - a per-log client breaker opened and re-closed at least once.
//
// When both runs crawled with -audit, the calculus changes and extra
// criteria apply: every claimed entry was Merkle-verified (Audited ==
// Fetched − Skipped with zero skips), the clean logs finished with
// zero proof failures, and the poisoned log — whose hole the audited
// tree cannot be verified past — ended run 2 distrusted with exactly
// the entries before its first poisoned index verified, a
// monitor.proof_failure and a fleet.log_state → distrusted event in
// the journals, and the fleet degraded-but-ready.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/obs"
)

// fleetSyncStats mirrors the monitor.SyncStats fields the fleet
// checker needs; the nested "stats" object carries Go field names.
type fleetSyncStats struct {
	Fetched        int
	SkippedEntries int
	ResumedFrom    int
	Forwarded      int
	Deduped        int
	Quarantined    int
	Audited        int
	ProofFailures  int
}

type fleetLogReport struct {
	Stats    fleetSyncStats `json:"stats"`
	Restarts int            `json:"restarts"`
	State    string         `json:"state"`
	Err      string         `json:"err"`
}

// fleetIndexStats mirrors the index.Stats self-report embedded in the
// stats JSON when the run persisted a certificate index.
type fleetIndexStats struct {
	Backend  string   `json:"backend"`
	Certs    uint64   `json:"certs"`
	Postings uint64   `json:"postings"`
	Segments int      `json:"segments"`
	Damaged  []string `json:"damaged"`
}

type fleetRun struct {
	Mode         string                    `json:"mode"`
	Audit        bool                      `json:"audit"`
	Entries      int                       `json:"entries"`
	Interrupted  bool                      `json:"interrupted"`
	FinalState   string                    `json:"final_state"`
	Unique       int                       `json:"unique_entries"`
	Deduped      int                       `json:"dup_entries"`
	ParseErrors  int                       `json:"parse_errors"`
	IndexPutErrs int                       `json:"index_put_errors"`
	Index        *fleetIndexStats          `json:"index"`
	LogSizes     map[string]int            `json:"log_sizes"`
	Poisoned     map[string][]int          `json:"poisoned"`
	Logs         map[string]fleetLogReport `json:"logs"`
	Metrics      map[string]any            `json:"metrics"`
}

func checkFleet(path1, path2, journal1, journal2 string) int {
	run1, run2 := loadFleet(path1), loadFleet(path2)

	var failures []string
	failf := func(format string, args ...any) {
		failures = append(failures, fmt.Sprintf(format, args...))
	}

	for _, r := range []struct {
		path string
		run  fleetRun
	}{{path1, run1}, {path2, run2}} {
		if r.run.Mode != "fleet" {
			failf("%s: mode %q, want \"fleet\" (not a ctmonitor -stats-json output?)", r.path, r.run.Mode)
		}
	}
	if run1.Audit != run2.Audit {
		failf("runs disagree on audit mode (%v vs %v); both must use the same -audit setting", run1.Audit, run2.Audit)
	}
	audit := run1.Audit && run2.Audit
	if len(run1.LogSizes) < 2 {
		failf("run 1 reports %d logs; a fleet soak needs at least 2", len(run1.LogSizes))
	}
	if !sameSizes(run1.LogSizes, run2.LogSizes) {
		failf("per-log sizes disagree between runs: %v vs %v (different -entries or -logs?)", run1.LogSizes, run2.LogSizes)
	}
	if !run1.Interrupted {
		failf("run 1 was not interrupted; the SIGTERM landed after the crawl finished — lengthen the crawl or shorten the kill delay")
	}
	if run2.Interrupted {
		failf("run 2 was interrupted; the resumed fleet crawl must complete")
	}

	// Degraded-not-dead across the kill: an interrupted fleet may be
	// degraded, but must never have collapsed below quorum; the
	// resumed fleet must finish with every failure domain healthy.
	if run1.FinalState == "stalled" {
		failf("run 1 ended with the fleet stalled; degraded-mode isolation failed")
	}
	// Under audit a poisoned log is distrusted (the tree cannot be
	// verified past a hole), so the resumed fleet correctly ends
	// degraded — never stalled — while the quorum holds. Without audit
	// the poisoned entries are skipped and every log ends healthy.
	if audit && len(run2.Poisoned) > 0 {
		if run2.FinalState != "degraded" {
			failf("run 2 ended with fleet state %q, want degraded (the poisoned log must be distrusted, its siblings healthy)", run2.FinalState)
		}
	} else if run2.FinalState != "healthy" {
		failf("run 2 ended with fleet state %q, want healthy", run2.FinalState)
	}

	// Per-log checkpoint resume and exact entry accounting. A log's
	// durable checkpoint is exactly the entries it handled (fetched or
	// bisection-skipped); the resumed crawl must start there and fetch
	// exactly the remainder.
	names := make([]string, 0, len(run1.LogSizes))
	for name := range run1.LogSizes {
		names = append(names, name)
	}
	sort.Strings(names)
	resumed := 0
	for _, name := range names {
		size := run1.LogSizes[name]
		l1, ok1 := run1.Logs[name]
		l2, ok2 := run2.Logs[name]
		if !ok1 || !ok2 {
			failf("%s: missing from a run's logs map (run1 %v, run2 %v)", name, ok1, ok2)
			continue
		}
		handled1 := l1.Stats.Fetched + l1.Stats.SkippedEntries
		if l2.Stats.ResumedFrom != handled1 {
			failf("%s: run 2 resumed at %d but run 1 handled %d (fetched %d + skipped %d); checkpoint lost progress",
				name, l2.Stats.ResumedFrom, handled1, l1.Stats.Fetched, l1.Stats.SkippedEntries)
		}
		if l2.Stats.ResumedFrom > 0 {
			resumed++
		}
		if audit {
			// The audit contract, per run: every claimed entry was
			// Merkle-verified and nothing was skipped — a persistently
			// unfetchable entry distrusts the log instead.
			for _, rl := range []struct {
				path string
				st   fleetSyncStats
			}{{path1, l1.Stats}, {path2, l2.Stats}} {
				if rl.st.Audited != rl.st.Fetched-rl.st.SkippedEntries {
					failf("%s: %s audited %d entries but fetched %d − skipped %d; unverified entries were claimed",
						rl.path, name, rl.st.Audited, rl.st.Fetched, rl.st.SkippedEntries)
				}
				if rl.st.SkippedEntries != 0 {
					failf("%s: %s skipped %d entries under audit; a hole must distrust the log, never be skipped",
						rl.path, name, rl.st.SkippedEntries)
				}
			}
		}
		if _, isPoisoned := run2.Poisoned[name]; audit && isPoisoned {
			// The audited crawl cannot verify the tree past the first
			// poisoned (unfetchable) entry: everything before it is
			// claimed and verified, the log lands distrusted there.
			p0 := run2.Poisoned[name][0]
			for _, i := range run2.Poisoned[name] {
				if i < p0 {
					p0 = i
				}
			}
			if l2.State != "distrusted" {
				failf("%s: run 2 ended %s (%s), want distrusted — audit cannot verify past the poisoned entry", name, l2.State, l2.Err)
			}
			if l1.Stats.ProofFailures+l2.Stats.ProofFailures == 0 {
				failf("%s: poisoned log recorded no proof-failure incident across either run", name)
			}
			if got := handled1 + l2.Stats.Fetched; got != p0 {
				failf("%s: runs verified %d entries, want exactly the %d before the first poisoned index %v",
					name, got, p0, run2.Poisoned[name])
			}
			continue
		}
		if audit && l1.Stats.ProofFailures+l2.Stats.ProofFailures != 0 {
			failf("%s: %d proof failures on a clean log", name, l1.Stats.ProofFailures+l2.Stats.ProofFailures)
		}
		if want := size - l2.Stats.ResumedFrom - l2.Stats.SkippedEntries; l2.Stats.Fetched != want {
			failf("%s: resumed at %d but fetched %d of %d (want exactly %d; skipped %d) — refetch or loss",
				name, l2.Stats.ResumedFrom, l2.Stats.Fetched, size, want, l2.Stats.SkippedEntries)
		}
		if sum := handled1 + l2.Stats.Fetched + l2.Stats.SkippedEntries; sum != size {
			failf("%s: runs handled %d entries total, want the log size %d", name, sum, size)
		}
		if l2.State != "healthy" {
			failf("%s: run 2 ended %s (%s), want healthy", name, l2.State, l2.Err)
		}
	}
	if resumed == 0 {
		failf("no log resumed from a checkpoint (ResumedFrom == 0 everywhere)")
	}

	// Cross-log dedup is exact per run: every fetched entry was
	// delivered downstream exactly once or counted as a duplicate.
	for _, r := range []struct {
		path string
		run  fleetRun
	}{{path1, run1}, {path2, run2}} {
		fetched := 0
		for _, l := range r.run.Logs {
			fetched += l.Stats.Fetched
		}
		if got := r.run.Unique + r.run.Deduped; got != fetched {
			failf("%s: unique %d + duplicates %d = %d, want the %d entries fetched — dedup lost or double-delivered",
				r.path, r.run.Unique, r.run.Deduped, got, fetched)
		}
	}

	// Poisoned-log quarantine: exactly the poisoned indices were
	// bisected out, across both runs combined, and nothing else.
	if len(run2.Poisoned) == 0 {
		failf("no poisoned log in the fleet; quarantine untested (add a :poison profile)")
	}
	// Audit mode never skips (the distrust assertions above cover the
	// poisoned log); without audit, bisection quarantines exactly the
	// poisoned indices.
	for name, idxs := range run2.Poisoned {
		if audit {
			break
		}
		skipped := run1.Logs[name].Stats.SkippedEntries + run2.Logs[name].Stats.SkippedEntries
		if skipped != len(idxs) {
			failf("%s: skipped %d entries across both runs, want exactly the %d poisoned %v",
				name, skipped, len(idxs), idxs)
		}
	}
	for _, name := range names {
		if _, poisoned := run2.Poisoned[name]; poisoned {
			continue
		}
		if skipped := run1.Logs[name].Stats.SkippedEntries + run2.Logs[name].Stats.SkippedEntries; skipped != 0 {
			failf("%s: skipped %d entries but is not a poisoned log", name, skipped)
		}
	}

	// Certificate-index zero-loss accounting across the SIGTERM. Both
	// runs share one index directory: run 1's graceful shutdown must
	// have sealed every Put into segments, so run 2's final durable
	// cert count is exactly run 1's count plus the certificates run 2
	// itself indexed (its index_puts_total counter). Any gap means the
	// restart lost indexed entries.
	if run1.Index == nil || run2.Index == nil {
		failf("missing index stats (was ctmonitor run with -index-dir?)")
	} else {
		puts1 := uint64(metricSum("index_puts_total", run1.Metrics))
		puts2 := uint64(metricSum("index_puts_total", run2.Metrics))
		if run1.Index.Certs != puts1 {
			failf("run 1 indexed %d certs but its store holds %d — flush lost entries before exit",
				puts1, run1.Index.Certs)
		}
		if want := run1.Index.Certs + puts2; run2.Index.Certs != want {
			failf("run 2's index holds %d certs, want %d (run 1's %d + run 2's %d puts) — indexed entries lost across the restart",
				run2.Index.Certs, want, run1.Index.Certs, puts2)
		}
		if puts2 == 0 {
			failf("run 2 indexed nothing; the resumed crawl never reached the index")
		}
		for _, r := range []struct {
			path string
			run  fleetRun
		}{{path1, run1}, {path2, run2}} {
			if r.run.IndexPutErrs != 0 {
				failf("%s: %d index put errors, want 0", r.path, r.run.IndexPutErrs)
			}
			if len(r.run.Index.Damaged) != 0 {
				failf("%s: index quarantined damaged segments %v", r.path, r.run.Index.Damaged)
			}
			// Every indexed certificate carries exactly 5 postings
			// (cert, domain, skeleton, issuer, time spaces).
			if r.run.Index.Postings != 5*r.run.Index.Certs {
				failf("%s: %d postings for %d certs, want exactly 5 per cert",
					r.path, r.run.Index.Postings, r.run.Index.Certs)
			}
		}
	}

	shed := metricSum("ctlog_server_shed_total", run1.Metrics, run2.Metrics)
	if shed <= 0 {
		failf("no log ever shed a request (ctlog_server_shed_total == 0); overload protection untested")
	}
	opened := metricSum(`ctlog_breaker_transitions_total{to="open"}`, run1.Metrics, run2.Metrics)
	closed := metricSum(`ctlog_breaker_transitions_total{to="closed"}`, run1.Metrics, run2.Metrics)
	if opened < 1 {
		failf("no per-log circuit breaker ever opened")
	}
	if closed < 1 {
		failf("no circuit breaker re-closed after opening")
	}

	// Journal replay: the summed monitor.sync.end accounting must
	// reproduce each run's stats rollup exactly — including run 1's
	// interrupted crawls, whose final sync.end carries the partial
	// counts the SIGTERM cut short.
	journals := 0
	evidence := &incidentEvidence{distrusted: map[string]bool{}, proofFailed: map[string]bool{}}
	for _, rj := range []struct {
		journal string
		path    string
		run     fleetRun
	}{{journal1, path1, run1}, {journal2, path2, run2}} {
		if rj.journal == "" {
			continue
		}
		reconcileJournal(rj.journal, rj.path, rj.run, evidence, failf)
		journals++
	}
	// The distrust incident trail: under audit the poisoned log's
	// proof failure and its distrusted state transition must both be
	// journaled (in whichever run first reached the hole).
	if audit && journals == 2 {
		for name := range run2.Poisoned {
			if !evidence.proofFailed[name] {
				failf("no monitor.proof_failure journal event for poisoned log %q in either run", name)
			}
			if !evidence.distrusted[name] {
				failf("no fleet.log_state → distrusted journal event for poisoned log %q in either run", name)
			}
		}
	}

	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "soakcheck: FAIL: %s\n", f)
		}
		return 1
	}
	auditNote := ""
	if audit {
		audited, pf := 0, 0
		for _, r := range []fleetRun{run1, run2} {
			for _, l := range r.Logs {
				audited += l.Stats.Audited
				pf += l.Stats.ProofFailures
			}
		}
		auditNote = fmt.Sprintf(", %d entries Merkle-audited with %d proof-failure incident(s) on the poisoned log", audited, pf)
	}
	fmt.Printf("soakcheck: PASS: fleet of %d logs, %d resumed, %d+%d unique entries, %d+%d duplicates, %d certs indexed with zero loss across the restart, %.0f shed, breaker opened %.0f× and closed %.0f×, %d journals replayed exactly%s\n",
		len(run1.LogSizes), resumed, run1.Unique, run2.Unique, run1.Deduped, run2.Deduped, run2.Index.Certs, shed, opened, closed, journals, auditNote)
	return 0
}

// journalSums accumulates one log's monitor.sync.end accounting.
type journalSums struct {
	fetched, deduped, quarantined, skipped, audited int
	ends                                            int
}

// incidentEvidence records which logs the journals show being
// distrusted and failing proofs, for the audit-mode assertions.
type incidentEvidence struct {
	distrusted  map[string]bool
	proofFailed map[string]bool
}

// attrInt reads a numeric journal attr (JSON numbers decode as
// float64).
func attrInt(attrs map[string]any, key string) int {
	if v, ok := attrs[key].(float64); ok {
		return int(v)
	}
	return 0
}

// reconcileJournal replays path's JSONL events and fails unless each
// log's summed sync.end accounting matches the run's stats exactly.
func reconcileJournal(journalPath, statsPath string, run fleetRun, evidence *incidentEvidence, failf func(string, ...any)) {
	f, err := os.Open(journalPath)
	if err != nil {
		failf("journal %s: %v", journalPath, err)
		return
	}
	defer f.Close()
	events, err := obs.ReadJournal(f)
	if err != nil {
		failf("journal %s: %v", journalPath, err)
		return
	}
	sums := map[string]*journalSums{}
	for _, ev := range events {
		if ev.Schema != obs.JournalSchema {
			failf("journal %s: event seq %d has schema v%d, want v%d", journalPath, ev.Seq, ev.Schema, obs.JournalSchema)
			return
		}
		switch ev.Type {
		case "monitor.proof_failure":
			if name, _ := ev.Attrs["log"].(string); name != "" {
				evidence.proofFailed[name] = true
			}
			continue
		case "fleet.log_state":
			if to, _ := ev.Attrs["to"].(string); to == "distrusted" {
				if name, _ := ev.Attrs["log"].(string); name != "" {
					evidence.distrusted[name] = true
				}
			}
			continue
		case "monitor.sync.end":
		default:
			continue
		}
		name, _ := ev.Attrs["log"].(string)
		s := sums[name]
		if s == nil {
			s = &journalSums{}
			sums[name] = s
		}
		s.ends++
		s.fetched += attrInt(ev.Attrs, "fetched")
		s.deduped += attrInt(ev.Attrs, "deduped")
		s.quarantined += attrInt(ev.Attrs, "quarantined")
		s.skipped += attrInt(ev.Attrs, "skipped")
		s.audited += attrInt(ev.Attrs, "audited")
	}
	for name, rep := range run.Logs {
		s := sums[name]
		if s == nil {
			failf("journal %s: no monitor.sync.end events for log %q", journalPath, name)
			continue
		}
		st := rep.Stats
		if s.fetched != st.Fetched || s.deduped != st.Deduped ||
			s.quarantined != st.Quarantined || s.skipped != st.SkippedEntries ||
			s.audited != st.Audited {
			failf("journal %s: %s replay (fetched %d, deduped %d, quarantined %d, skipped %d, audited %d) != %s stats (fetched %d, deduped %d, quarantined %d, skipped %d, audited %d)",
				journalPath, name, s.fetched, s.deduped, s.quarantined, s.skipped, s.audited,
				statsPath, st.Fetched, st.Deduped, st.Quarantined, st.SkippedEntries, st.Audited)
		}
	}
	for name := range sums {
		if _, ok := run.Logs[name]; !ok {
			failf("journal %s: sync.end events for unknown log %q", journalPath, name)
		}
	}
}

func sameSizes(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func loadFleet(path string) fleetRun {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "soakcheck: %v\n", err)
		os.Exit(2)
	}
	var r fleetRun
	if err := json.Unmarshal(data, &r); err != nil {
		fmt.Fprintf(os.Stderr, "soakcheck: %s: %v\n", path, err)
		os.Exit(2)
	}
	return r
}
