package main

// SIGKILL soak verification (scripts/soak_kill.sh): a fleet crawl was
// killed with SIGKILL several times, restarted after each kill, and
// finally allowed to finish; a reference crawl of identically built
// logs ran once without interruption into its own index. The killed
// index must hold every certificate the reference index holds — cert
// for cert, by leaf hash — so no kill point lost a certificate that a
// checkpoint had already claimed.
//
// Asserted:
//
//   - the reference run and the final run both completed (not
//     interrupted) with the fleet healthy;
//   - the reference index's distinct leaf hashes number exactly the
//     reference run's unique entries (minus parse errors: entries that
//     never parse are never indexed);
//   - the killed index holds exactly the reference index's set of
//     distinct leaf hashes — none missing, none foreign;
//   - neither index quarantined a damaged segment.
//
// Records are NOT required to be unique: a restarted crawl re-delivers
// the entries after its last commit, and the index stores those again
// until Put becomes idempotent, so the killed index may hold more
// records than certificates.

import (
	"encoding/hex"
	"fmt"
	"os"
	"time"

	"repro/internal/index"
)

// leafSet opens the index in dir and returns its distinct leaf hashes
// and record count.
func leafSet(dir string) (map[[32]byte]bool, index.Stats, error) {
	ix, err := index.Open(index.Options{Dir: dir, CompactAfter: -1})
	if err != nil {
		return nil, index.Stats{}, err
	}
	defer ix.Close()
	st := ix.Stats()
	// Every record has exactly one time posting, so one range scan over
	// all time visits each record once.
	q := index.RangeQuery(time.Unix(-1<<62, 0), time.Unix(1<<62, 0))
	q.Limit = int(st.Certs) + 1
	recs, err := ix.Lookup(q)
	if err != nil {
		return nil, st, err
	}
	if uint64(len(recs)) != st.Certs {
		return nil, st, fmt.Errorf("range scan returned %d records, stats report %d", len(recs), st.Certs)
	}
	set := make(map[[32]byte]bool, len(recs))
	for _, r := range recs {
		set[r.LeafHash] = true
	}
	return set, st, nil
}

func checkKill(refPath, finalPath, refIndex, killIndex string) int {
	ref, final := loadFleet(refPath), loadFleet(finalPath)
	var failures []string
	failf := func(format string, args ...any) {
		failures = append(failures, fmt.Sprintf(format, args...))
	}
	for _, r := range []struct {
		path string
		run  fleetRun
	}{{refPath, ref}, {finalPath, final}} {
		if r.run.Mode != "fleet" {
			failf("%s: mode %q, want \"fleet\"", r.path, r.run.Mode)
		}
		if r.run.Interrupted {
			failf("%s: run was interrupted; it must complete", r.path)
		}
		if r.run.FinalState != "healthy" {
			failf("%s: final_state %q, want healthy", r.path, r.run.FinalState)
		}
	}
	if !sameSizes(ref.LogSizes, final.LogSizes) {
		failf("per-log sizes disagree: reference %v, final %v (different -entries or -logs?)", ref.LogSizes, final.LogSizes)
	}

	want, refStats, err := leafSet(refIndex)
	if err != nil {
		failf("reference index %s: %v", refIndex, err)
	}
	got, killStats, err := leafSet(killIndex)
	if err != nil {
		failf("killed index %s: %v", killIndex, err)
	}
	if len(failures) == 0 {
		if unique := ref.Unique - ref.ParseErrors; len(want) != unique {
			failf("reference index holds %d distinct certificates, want the run's %d unique entries (less %d parse errors)",
				len(want), ref.Unique, ref.ParseErrors)
		}
		missing, foreign := 0, 0
		var example [32]byte
		for h := range want {
			if !got[h] {
				if missing == 0 {
					example = h
				}
				missing++
			}
		}
		for h := range got {
			if !want[h] {
				foreign++
			}
		}
		if missing > 0 {
			failf("killed index is missing %d of %d certificates (e.g. leaf %s) — a checkpoint was committed past undurable entries",
				missing, len(want), hex.EncodeToString(example[:8]))
		}
		if foreign > 0 {
			failf("killed index holds %d certificates the reference index lacks", foreign)
		}
		for _, d := range []struct {
			dir string
			st  index.Stats
		}{{refIndex, refStats}, {killIndex, killStats}} {
			if len(d.st.Damaged) > 0 {
				failf("%s: damaged segments %v", d.dir, d.st.Damaged)
			}
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "soakcheck: FAIL: %s\n", f)
		}
		return 1
	}
	fmt.Printf("soakcheck: PASS: killed fleet indexed all %d certificates of the uninterrupted reference (%d records, %d in the reference)\n",
		len(want), killStats.Certs, refStats.Certs)
	return 0
}
