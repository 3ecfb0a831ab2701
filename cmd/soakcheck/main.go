// Command soakcheck verifies the crash/recovery soaks from the
// ctmonitor -stats-json outputs they leave behind.
//
// With -fleet it checks `make soak-fleet`: two runs of a multi-log
// fleet, the first SIGTERMed mid-crawl, the second a restarted process
// resuming every log off its own checkpoint — per-log checkpoint resume
// with zero refetch, exact cross-log dedup accounting, poisoned-entry
// quarantine, shed requests on the rate-limited logs, breakers that
// opened and re-closed, and fleet health that degrades without dying.
// See fleet.go.
//
// With -journal1/-journal2 it additionally replays each run's JSONL
// event journal and reconciles the summed monitor.sync.end accounting
// per log against that run's -stats-json rollup — fetched, deduped,
// quarantined, and skipped must match EXACTLY, proving the journal
// records every crawl outcome including interrupted ones.
//
// With -kill it checks the SIGKILL soak (scripts/soak_kill.sh): an
// uninterrupted reference crawl and the final run of a repeatedly
// SIGKILLed crawl, whose indexes must hold the same certificates. See
// kill.go.
//
// Usage:
//
//	soakcheck -fleet [-journal1 run1.jsonl -journal2 run2.jsonl] run1.json run2.json
//	soakcheck -kill -ref-index DIR -index DIR reference.json final.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	fleetMode := flag.Bool("fleet", false, "check a SIGTERM fleet soak: run1.json run2.json")
	journal1 := flag.String("journal1", "", "fleet mode: run 1's -journal JSONL file to replay against its stats")
	journal2 := flag.String("journal2", "", "fleet mode: run 2's -journal JSONL file to replay against its stats")
	killMode := flag.Bool("kill", false, "check a SIGKILL soak: reference.json final.json plus -ref-index and -index")
	refIndex := flag.String("ref-index", "", "kill mode: index directory of the uninterrupted reference run")
	killIndex := flag.String("index", "", "kill mode: index directory of the killed and restarted runs")
	flag.Parse()
	if flag.NArg() != 2 || *fleetMode == *killMode || (*killMode && (*refIndex == "" || *killIndex == "")) {
		fmt.Fprintln(os.Stderr, "usage: soakcheck -fleet [-journal1 run1.jsonl -journal2 run2.jsonl] run1.json run2.json")
		fmt.Fprintln(os.Stderr, "       soakcheck -kill -ref-index DIR -index DIR reference.json final.json")
		os.Exit(2)
	}
	if *killMode {
		os.Exit(checkKill(flag.Arg(0), flag.Arg(1), *refIndex, *killIndex))
	}
	os.Exit(checkFleet(flag.Arg(0), flag.Arg(1), *journal1, *journal2))
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
