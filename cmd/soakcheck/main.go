// Command soakcheck verifies the crash/recovery soak run driven by
// `make soak`: two ctmonitor -stats-json outputs, the first from a
// crawl killed mid-flight with SIGTERM, the second from a restarted
// process resuming off the same -checkpoint-file against an
// identically rebuilt log.
//
// It asserts the hardening acceptance criteria:
//
//   - the first run was interrupted and checkpointed;
//   - the second run resumed from a non-zero checkpoint (no refetch:
//     its fetch count is exactly the remainder);
//   - entry accounting is exact — for every monitor, run 1 fetches
//     plus run 2 fetches equal the log size, no loss and no overlap;
//   - the overloaded log shed requests (ctlog_server_shed_total > 0);
//   - the client's circuit breaker both opened and re-closed.
//
// With -fleet it instead checks a fleet-mode soak (ctmonitor -logs):
// per-log checkpoint resume with zero refetch, exact cross-log dedup
// accounting, poisoned-entry quarantine, and fleet health that
// degrades without dying. See fleet.go.
//
// With -journal1/-journal2 (fleet mode) it additionally replays each
// run's JSONL event journal and reconciles the summed
// monitor.sync.end accounting per log against that run's -stats-json
// rollup — fetched, deduped, quarantined, and skipped must match
// EXACTLY, proving the journal records every crawl outcome including
// interrupted ones.
//
// With -kill it checks the SIGKILL soak (scripts/soak_kill.sh): an
// uninterrupted reference crawl and the final run of a repeatedly
// SIGKILLed crawl, whose indexes must hold the same certificates. See
// kill.go.
//
// Usage:
//
//	soakcheck [-fleet] [-journal1 run1.jsonl -journal2 run2.jsonl] run1.json run2.json
//	soakcheck -kill -ref-index DIR -index DIR reference.json final.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// syncStats mirrors the fields of monitor.SyncStats this checker
// needs; the JSON object carries the Go field names verbatim.
type syncStats struct {
	Fetched     int
	ResumedFrom int
}

type run struct {
	Entries     int                  `json:"entries"`
	Interrupted bool                 `json:"interrupted"`
	Monitors    map[string]syncStats `json:"monitors"`
	Metrics     map[string]any       `json:"metrics"`
}

func main() {
	fleetMode := flag.Bool("fleet", false, "check a fleet-mode soak (ctmonitor -logs stats-json schema)")
	journal1 := flag.String("journal1", "", "fleet mode: run 1's -journal JSONL file to replay against its stats")
	journal2 := flag.String("journal2", "", "fleet mode: run 2's -journal JSONL file to replay against its stats")
	killMode := flag.Bool("kill", false, "check a SIGKILL soak: reference.json final.json plus -ref-index and -index")
	refIndex := flag.String("ref-index", "", "kill mode: index directory of the uninterrupted reference run")
	killIndex := flag.String("index", "", "kill mode: index directory of the killed and restarted runs")
	flag.Parse()
	if flag.NArg() != 2 || (*killMode && (*refIndex == "" || *killIndex == "")) {
		fmt.Fprintln(os.Stderr, "usage: soakcheck [-fleet] [-journal1 run1.jsonl -journal2 run2.jsonl] run1.json run2.json")
		fmt.Fprintln(os.Stderr, "       soakcheck -kill -ref-index DIR -index DIR reference.json final.json")
		os.Exit(2)
	}
	if *killMode {
		os.Exit(checkKill(flag.Arg(0), flag.Arg(1), *refIndex, *killIndex))
	}
	if *fleetMode {
		os.Exit(checkFleet(flag.Arg(0), flag.Arg(1), *journal1, *journal2))
	}
	run1, run2 := load(flag.Arg(0)), load(flag.Arg(1))

	var failures []string
	failf := func(format string, args ...any) {
		failures = append(failures, fmt.Sprintf(format, args...))
	}

	if run1.Entries == 0 || run1.Entries != run2.Entries {
		failf("log sizes disagree: run1=%d run2=%d", run1.Entries, run2.Entries)
	}
	total := run2.Entries
	if !run1.Interrupted {
		failf("run 1 was not interrupted; the SIGTERM landed after the crawl finished — lengthen the crawl or shorten the kill delay")
	}
	if run2.Interrupted {
		failf("run 2 was interrupted; the resumed crawl must complete")
	}

	// The resumed run must pick up from a durable checkpoint, and its
	// fetch count must be exactly the remainder — a refetch would show
	// up as Fetched > total-ResumedFrom.
	resumed := 0
	for name, s2 := range run2.Monitors {
		if s2.ResumedFrom <= 0 {
			continue
		}
		resumed++
		if want := total - s2.ResumedFrom; s2.Fetched != want {
			failf("%s: resumed at %d but fetched %d (want exactly %d)", name, s2.ResumedFrom, s2.Fetched, want)
		}
	}
	if resumed == 0 {
		failf("no monitor resumed from a checkpoint (ResumedFrom == 0 everywhere)")
	}

	// Exact entry accounting across the kill: each monitor's two crawls
	// partition the log.
	names := make(map[string]bool)
	for n := range run1.Monitors {
		names[n] = true
	}
	for n := range run2.Monitors {
		names[n] = true
	}
	if len(names) == 0 {
		failf("no monitors in either run")
	}
	for n := range names {
		sum := run1.Monitors[n].Fetched + run2.Monitors[n].Fetched
		if sum != total {
			failf("%s: run1 fetched %d + run2 fetched %d = %d, want %d", n, run1.Monitors[n].Fetched, run2.Monitors[n].Fetched, sum, total)
		}
	}

	shed := metricSum("ctlog_server_shed_total", run1.Metrics, run2.Metrics)
	if shed <= 0 {
		failf("log never shed a request (ctlog_server_shed_total == 0); overload protection untested")
	}
	opened := metricSum(`ctlog_breaker_transitions_total{to="open"}`, run1.Metrics, run2.Metrics)
	closed := metricSum(`ctlog_breaker_transitions_total{to="closed"}`, run1.Metrics, run2.Metrics)
	if opened < 1 {
		failf("circuit breaker never opened")
	}
	if closed < 1 {
		failf("circuit breaker never re-closed after opening")
	}

	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "soakcheck: FAIL: %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Printf("soakcheck: PASS: %d entries, %d monitor(s) resumed, %.0f shed, breaker opened %.0f× and closed %.0f×\n",
		total, resumed, shed, opened, closed)
}

// metricSum adds every metric sample whose key starts with prefix
// across the given snapshots. Counter values arrive as float64 via
// JSON.
func metricSum(prefix string, snapshots ...map[string]any) float64 {
	var sum float64
	for _, m := range snapshots {
		for k, v := range m {
			if !strings.HasPrefix(k, prefix) {
				continue
			}
			if f, ok := v.(float64); ok {
				sum += f
			}
		}
	}
	return sum
}

func load(path string) run {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "soakcheck: %v\n", err)
		os.Exit(2)
	}
	var r run
	if err := json.Unmarshal(data, &r); err != nil {
		fmt.Fprintf(os.Stderr, "soakcheck: %s: %v\n", path, err)
		os.Exit(2)
	}
	return r
}
