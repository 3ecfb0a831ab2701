package main

// fleet_backfill: catch-up ingest. Both logs are filled in setup; each
// timed round is one audited, checkpointed fleet.Coordinator.Run from
// empty state into a fresh LSM index, ended by Flush. Nearly all the
// work is crawl, audit, checkpoint, dedup and index writes (many flush
// and compaction cycles); there is no lint and no read traffic.

import (
	"context"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/ctlog"
	"repro/internal/index"
)

// backfillCerts is the unique-certificate count per round; the two
// half-stride windows make the fleet fetch 1.5× as many entries. With
// the default FlushAt a round flushes 37 times and compacts 6 times.
const backfillCerts = 30000

func runBackfill(o opts) (*result, error) {
	res := newResult()
	n := backfillCerts
	env, setup, err := timedSetup(func() (*fleetEnv, error) { return newFleetEnv(n, o.seed) }, (*fleetEnv).close)
	defer env.close()
	if err != nil {
		return nil, err
	}
	res.setE2E("setup_s", setup)
	res.setLayer("corpus.generate_s", env.generateS)
	res.setLayer("ctlog.append_s", env.appendS)
	flushCtr := env.reg.Counter("index_flushes_total")
	stallCtr := env.reg.Counter("fleet_feed_put_stalls_total")

	var tr *tracer
	var pt *passTrace
	if o.trace {
		tr, pt = newTracer(), newPassTrace()
	}
	ctx := context.Background()

	// round runs one catch-up into a fresh index. On the final round it
	// also checks that every certificate is point-queryable.
	round := func(k int, traced, final bool) (*roundOut, error) {
		dirs, err := makeDirs(filepath.Join(o.workDir, fmt.Sprintf("round-%d", k)))
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(filepath.Dir(dirs.index))
		ix, err := index.Open(index.Options{Dir: dirs.index, Obs: env.reg})
		if err != nil {
			return nil, err
		}
		state := newCertState(n)
		epoch := time.Now()
		c := &consumer{env: env, ix: ix, flushCtr: flushCtr, state: state, epoch: epoch}
		var rtr *tracer
		var rpt *passTrace
		if traced {
			rtr, rpt = tr, pt
			env.active.Store(tr)
		}
		rid, r0 := rtr.begin()
		fr, err := env.runFleet(ctx, dirs, c, rpt)
		runWall := time.Since(epoch).Seconds()
		if err != nil {
			env.active.Store(nil)
			ix.Close()
			return nil, err
		}
		fid, f0 := rtr.begin()
		ferr := ix.Flush()
		rtr.end(fid, rid, "index.flush", f0)
		rtr.end(rid, 0, "pass", r0)
		wall := time.Since(epoch).Seconds()
		env.active.Store(nil)
		if ferr != nil {
			ix.Close()
			return nil, ferr
		}

		out := &roundOut{wall: wall, runWall: runWall}
		fetched, audited, proofFailures, retries := checkFleetResult(res, fr)
		out.fetched, out.audited, out.proofFailures, out.retries = fetched, audited, proofFailures, retries
		if fr.UniqueEntries != n || fr.UniqueEntries+fr.DupEntries != fetched {
			res.invalid("round %d: unique %d dup %d fetched %d for %d certificates", k, fr.UniqueEntries, fr.DupEntries, fetched, n)
		}
		var records uint64
		res.attempted += n
		for id := 0; id < n; id++ {
			records += uint64(state.records[id])
			if state.queryable[id] == 0 {
				res.failed++
				continue
			}
			out.lat = append(out.lat, float64(state.queryable[id])/1e6)
		}
		res.failed += c.parseErrors + c.putErrors
		if c.unknown > 0 {
			res.invalid("round %d: %d entries not from the generated corpus", k, c.unknown)
		}
		if final {
			res.failed += pointCheck(ix, env, state, n)
			if err := queryCheck(res, ix, env, state); err != nil {
				ix.Close()
				return nil, err
			}
		}
		if err := ix.Close(); err != nil {
			return nil, err
		}
		out.stats = ix.Stats()
		out.bytes = dirBytes(dirs.index)
		st := out.stats
		switch {
		case st.Certs != uint64(n):
			res.invalid("round %d: index holds %d records for %d unique certificates", k, st.Certs, n)
		case st.Certs != records:
			res.invalid("round %d: index holds %d records, consumer put %d", k, st.Certs, records)
		case st.Postings != 5*st.Certs:
			res.invalid("round %d: %d postings for %d records (want 5 per record)", k, st.Postings, st.Certs)
		case len(st.Damaged) > 0:
			res.invalid("round %d: damaged segments %v", k, st.Damaged)
		}
		fmt.Fprintf(stderr, "fleet_backfill: round %d traced=%v wall=%.3fs %s segments=%d flushes=%d compactions=%d\n",
			k, traced, wall, describeFleet(fr), st.Segments, st.Flushes, st.Compactions)
		return out, nil
	}

	// Warm-up round: connections, pools and interning tables fill
	// before timing.
	if _, err := round(0, false, false); err != nil {
		return nil, err
	}

	var plain, traced []*roundOut
	var heapPeaks []float64
	heap := startHeapSampler()
	rt0 := readRuntime()
	stalls0 := stallCtr.Value()
	start := time.Now()
	rounds := 0
	for done := false; !done; {
		rounds++
		isTraced := tr != nil && rounds%2 == 0
		// Decide before the round whether it is the last: the final
		// round carries the end-of-run point-query check.
		done = rounds >= 3 && time.Since(start).Seconds()+median(roundWalls(plain, traced)) >= o.seconds
		out, err := round(rounds, isTraced, done)
		if err != nil {
			return nil, err
		}
		peak := heap.lap()
		if isTraced {
			traced = append(traced, out)
		} else {
			plain = append(plain, out)
			heapPeaks = append(heapPeaks, peak)
		}
	}
	rt := readRuntime().sub(rt0)
	heap.close()
	all := append(append([]*roundOut(nil), plain...), traced...)

	var rates, p50s, p99s []float64
	for _, r := range plain {
		rates = append(rates, float64(n)/r.wall)
		p50s = append(p50s, quantile(r.lat, 0.5))
		p99s = append(p99s, quantile(r.lat, 0.99))
	}
	res.setE2E("certs_per_s", median(rates))
	res.setE2E("heap_peak_mb", median(heapPeaks))
	res.setE2E("queryable_p50_ms", median(p50s))
	res.setE2E("queryable_p99_ms", median(p99s))

	var flushes, compactions, bytesPC, recPC, runWalls []float64
	for _, r := range all {
		flushes = append(flushes, float64(r.stats.Flushes))
		compactions = append(compactions, float64(r.stats.Compactions))
		bytesPC = append(bytesPC, float64(r.bytes)/float64(r.stats.Certs))
		recPC = append(recPC, float64(r.stats.Certs)/float64(n))
		runWalls = append(runWalls, r.runWall)
	}
	last := all[len(all)-1].stats
	res.setLayer("index.flushes", median(flushes))
	res.setLayer("index.compactions", median(compactions))
	res.setLayer("index.segments_end", float64(last.Segments))
	res.setLayer("index.bytes_per_cert", median(bytesPC))
	res.setLayer("index.records_per_cert", median(recPC))
	res.setLayer("fleet.passes", float64(len(all)))
	res.setLayer("fleet.pass_p50_s", median(runWalls))
	res.setLayer("fleet.feed_stalls", float64(stallCtr.Value()-stalls0)/float64(len(all)))
	res.setLayer("fleet.dedup_share", float64(all[0].fetched-n)/float64(all[0].fetched))
	res.setLayer("runtime.alloc_bytes_per_cert", float64(rt.allocBytes)/float64(len(all)*n))
	res.setLayer("runtime.gc_cycles", float64(rt.gcCycles)/float64(len(all)))

	if tr != nil {
		if !tr.mergeObs(pt.obs) {
			res.flag("obs span ring filled; program spans may be missing")
		}
		st := tr.analyze()
		k := float64(len(traced))
		fleetLayers(res, st, k)
		var fetched, audited, proofFailures, retries int
		var wallSum float64
		for _, r := range traced {
			fetched += r.fetched
			audited += r.audited
			proofFailures += r.proofFailures
			retries += r.retries
			wallSum += r.wall
		}
		res.setLayer("ctlog.server.get_entries.bytes_per_entry", float64(env.srvBytes.Load())/float64(fetched))
		res.setLayer("ctlog.client.retries", float64(retries)/k)
		res.setLayer("monitor.checkpoint_persists", float64(pt.jc.persists.Load())/k)
		res.setLayer("monitor.audited", float64(audited)/k)
		res.setLayer("monitor.proof_failures", float64(proofFailures)/k)
		if c := st["fleet.consumer"]; c != nil {
			res.setLayer("fleet.consumer_busy_share", c.busy/wallSum)
		}
		finishTrace(res, tr, o.workload, median(roundWalls(nil, traced)), median(roundWalls(plain, nil)),
			tr.reconcileGap("pass", "monitor.sync", "fleet.consumer", "index.flush"))
	}
	fmt.Fprintf(stderr, "fleet_backfill: %d rounds (%d traced) of %d certificates\n", len(all), len(traced), n)
	return res, nil
}

// roundOut is one catch-up round's measurements.
type roundOut struct {
	wall, runWall float64 // Run start → Flush return, → Run return
	lat           []float64
	stats         index.Stats
	bytes         int64
	fetched       int
	audited       int
	proofFailures int
	retries       int
}

func roundWalls(a, b []*roundOut) []float64 {
	var out []float64
	for _, r := range append(append([]*roundOut(nil), a...), b...) {
		out = append(out, r.wall)
	}
	return out
}

// queryCheckEvery picks the certificates the final round also asks
// for through the HTTP query API (a tenth of them), which gives the
// query layer's per-layer numbers on this workload.
const queryCheckEvery = 10

// queryCheck point-queries a sample of certificates over the query API
// after catch-up, closed loop over one connection; wrong or failed
// answers count as failed operations.
func queryCheck(res *result, ix *index.LSM, env *fleetEnv, state *certState) error {
	api, err := startQueryAPI(ix, env.reg)
	if err != nil {
		return err
	}
	defer api.close()
	for id := 0; id < len(state.domain); id += queryCheckEvery {
		res.attempted++
		if !api.query(env.ders[id], state.domain[id]) {
			res.failed++
		}
	}
	api.report(res)
	return nil
}

// pointCheck asks the index for every certificate by its domain and
// returns how many of the first upto are missing (each counts as a failed operation).
func pointCheck(ix *index.LSM, env *fleetEnv, state *certState, upto int) int {
	missing := 0
	for id, d := range env.ders[:upto] {
		h := ctlog.LeafHash(d)
		recs, err := ix.Lookup(index.PointQuery(state.domain[id]))
		found := false
		for _, r := range recs {
			found = found || r.LeafHash == h
		}
		if err != nil || !found {
			if missing == 0 {
				fmt.Fprintf(stderr, "fleet: certificate %d (%s, leaf %s) not point-queryable (err %v)\n",
					id, state.domain[id], hex.EncodeToString(h[:8]), err)
			}
			missing++
		}
	}
	return missing
}
