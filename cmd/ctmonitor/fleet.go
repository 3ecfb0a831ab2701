package main

// Fleet mode: ctmonitor stands up several in-process CT logs — each
// with its own fault profile — and crawls them all through
// internal/fleet, one supervised worker per log, with cross-log dedup,
// bounded-feed backpressure, per-log crash-safe checkpoints, and the
// quorum-gated /readyz. This is the multi-log production shape of the
// §6.1 pipeline: one sick log degrades the fleet, it does not kill it.
//
// Log windows deliberately OVERLAP: the corpus is split into per-log
// slices that each extend half a stride into their neighbours, and the
// crafted forgery is submitted to every log, so the run always
// exercises the dedup path with a known shape.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/corpus"
	"repro/internal/ctlog"
	"repro/internal/faultinject"
	"repro/internal/fleet"
	"repro/internal/index"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/x509cert"
)

// fleetParams carries the flag values fleet mode consumes.
type fleetParams struct {
	specs            string
	entries          int
	batch            int
	drain            time.Duration
	faultSeed        int64
	timeout          time.Duration
	maxRetries       int
	breakerThreshold int
	breakerCooldown  time.Duration
	rateLimit        float64
	rateBurst        int
	checkpointDir    string
	audit            bool
	sthStoreDir      string
	quorum           int
	queueDepth       int
	stallAfter       time.Duration
	metricsAddr      string
	indexDir         string
	queryAddr        string
	queryRateLimit   float64
	queryBurst       int
	queryMaxInflight int
	statsJSON        bool
	query            string
	monitorFilter    string
	progressEvery    time.Duration
	journal          *obs.Journal
	flight           *obs.Flight
}

// SLO policy for fleet mode. Windows are short because a ctmonitor run
// is short — a production deploy would stretch these to SRE-book spans
// (5m/1h) without touching the engine.
const (
	sloTickEvery  = 500 * time.Millisecond
	sloFastWindow = 10 * time.Second
	sloSlowWindow = 60 * time.Second
	// sloErrObjective is the tolerated retryable share of CT log
	// attempts; warn at 2x budget burn, page at 10x on both windows.
	sloErrObjective = 0.05
	sloBurnWarn     = 2
	sloBurnPage     = 10
	// sloFreshTarget is the default checkpoint-age target when
	// -fleet-stall-after is unset; warn at half the budget, page at it.
	sloFreshTarget = 30 * time.Second
)

// fleetLog is one stood-up log with its fault profile.
type fleetLog struct {
	name     string
	profile  string
	size     int
	poisoned []int
	injector *faultinject.Transport
	srv      *serve.Server
	done     chan error
}

// parseFleetSpecs turns "alpha:hang,bravo:flaky,charlie" into
// (name, profile) pairs; a missing profile means clean.
func parseFleetSpecs(s string) ([][2]string, error) {
	var out [][2]string
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, profile := part, "clean"
		if i := strings.IndexByte(part, ':'); i >= 0 {
			name, profile = part[:i], part[i+1:]
		}
		if name == "" {
			return nil, fmt.Errorf("empty log name in -logs spec %q", part)
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate log name %q in -logs", name)
		}
		seen[name] = true
		switch profile {
		case "clean", "flaky", "hang", "poison":
		default:
			return nil, fmt.Errorf("unknown fault profile %q for log %q (want clean, flaky, hang, or poison)", profile, name)
		}
		out = append(out, [2]string{name, profile})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-logs given but no log specs parsed")
	}
	return out, nil
}

// fleetWindow is log i's half-stride-overlapping slice of [0, total).
func fleetWindow(i, n, total int) (lo, hi int) {
	if n <= 1 || total <= n {
		return 0, total
	}
	stride := total / n
	lo = i*stride - stride/2
	if lo < 0 {
		lo = 0
	}
	hi = (i+1)*stride + stride/2
	if i == n-1 || hi > total {
		hi = total
	}
	return lo, hi
}

// poisonIndices picks the deterministic per-log poisoned entries for
// the "poison" profile: quartile positions within the log.
func poisonIndices(size int) []int {
	if size < 4 {
		return []int{0}
	}
	set := map[int]bool{size / 4: true, size / 2: true, 3 * size / 4: true}
	out := make([]int, 0, len(set))
	for i := range set {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// fleetTransport builds one log's fault injector (nil for clean).
func fleetTransport(profile string, seed int64, timeout time.Duration, poisoned []int) *faultinject.Transport {
	switch profile {
	case "flaky":
		return faultinject.New(faultinject.Config{
			Seed: seed, Rate: 0.25,
			Kinds:          []faultinject.Kind{faultinject.ServerError},
			MaxConsecutive: 2,
		}, nil)
	case "hang":
		// The hang outlasts the client timeout, so every hang costs the
		// crawl one full timeout before the retry path takes over.
		return faultinject.New(faultinject.Config{
			Seed: seed, Rate: 0.2,
			Kinds:          []faultinject.Kind{faultinject.Hang},
			HangFor:        2 * timeout,
			MaxConsecutive: 2,
		}, nil)
	case "poison":
		pe := map[int]bool{}
		for _, i := range poisoned {
			pe[i] = true
		}
		return faultinject.New(faultinject.Config{Seed: seed, PoisonEntries: pe}, nil)
	default:
		return nil
	}
}

// runFleet executes fleet mode end to end and returns the process exit
// code.
func runFleet(ctx context.Context, out io.Writer, reg *obs.Registry, tracer *obs.Tracer, p fleetParams) int {
	specs, err := parseFleetSpecs(p.specs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ctmonitor: %v\n", err)
		return 1
	}
	if p.progressEvery > 0 {
		prog := obs.NewProgress(os.Stderr, reg, p.progressEvery, "fleet_", "monitor_", "ctlog_")
		prog.Start()
		defer prog.Stop()
	}

	// The corpus is seeded identically to single-log mode, so a
	// restarted process rebuilds byte-identical logs and checkpointed
	// crawls resume against unchanged trees.
	c, err := corpus.Generate(corpus.Config{Size: p.entries, Seed: 31})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ctmonitor: %v\n", err)
		return 1
	}
	forged := buildForgery(p.query)

	retries := p.maxRetries
	if retries == 0 {
		retries = -1
	}

	var logs []*fleetLog
	var fleetSpecs []fleet.LogSpec
	for i, sp := range specs {
		name, profile := sp[0], sp[1]
		lo, hi := fleetWindow(i, len(specs), len(c.Entries))
		log, err := ctlog.NewLog(2025 + int64(i))
		if err != nil {
			fmt.Fprintf(os.Stderr, "ctmonitor: %v\n", err)
			return 1
		}
		for _, e := range c.Entries[lo:hi] {
			if _, err := log.AddParsed(e.DER, false); err != nil {
				fmt.Fprintf(os.Stderr, "ctmonitor: %s: %v\n", name, err)
				return 1
			}
		}
		// Every log carries the forgery: the fleet must index it exactly
		// once and dedup the other copies.
		if _, err := log.AddParsed(forged, false); err != nil {
			fmt.Fprintf(os.Stderr, "ctmonitor: %s: %v\n", name, err)
			return 1
		}
		fl := &fleetLog{name: name, profile: profile, size: hi - lo + 1, done: make(chan error, 1)}
		if profile == "poison" {
			fl.poisoned = poisonIndices(fl.size)
		}
		fl.injector = fleetTransport(profile, p.faultSeed+int64(i), p.timeout, fl.poisoned)

		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintf(os.Stderr, "ctmonitor: %s listener: %v\n", name, err)
			return 1
		}
		// Per-log front ends share the registry's ctlog_server_*
		// COUNTERS — counters aggregate cleanly across servers, and the
		// fleet-wide totals are exactly what the shed-rate SLO burns
		// against; the fleet's labeled instruments carry the per-log
		// story. The rate limit applies per log — every front end gets
		// its own token bucket.
		fl.srv = serve.New((&ctlog.Server{
			Log:       log,
			RateLimit: p.rateLimit, RateBurst: p.rateBurst,
			Obs:     reg,
			Journal: p.journal,
			Name:    "ctlog-" + name,
		}).Handler(), serve.Config{
			Name:         "ctlog-" + name,
			DrainTimeout: p.drain,
			Journal:      p.journal,
		})
		go func(fl *fleetLog, ln net.Listener) { fl.done <- fl.srv.Run(ctx, ln) }(fl, ln)

		var transport http.RoundTripper
		if fl.injector != nil {
			transport = fl.injector
		}
		// Client metrics (ctlog_client_*, ctlog_breaker_*) are unlabeled
		// and therefore aggregate across the fleet's clients — the
		// fleet_* series carry the per-log story.
		client := &ctlog.Client{
			Base:       "http://" + ln.Addr().String(),
			HTTP:       &http.Client{Transport: transport},
			MaxRetries: retries,
			Timeout:    p.timeout,
			Obs:        reg,
			Tracer:     tracer,
		}
		if p.breakerThreshold > 0 {
			client.Breaker = &ctlog.Breaker{Threshold: p.breakerThreshold, Cooldown: p.breakerCooldown}
		}
		logs = append(logs, fl)
		fleetSpecs = append(fleetSpecs, fleet.LogSpec{Name: name, Client: client, Batch: p.batch})
		fmt.Fprintf(out, "fleet log %-10s profile=%-6s entries=%d (corpus [%d,%d) + forgery)", name, profile, fl.size, lo, hi)
		if len(fl.poisoned) > 0 {
			fmt.Fprintf(out, " poisoned=%v", fl.poisoned)
		}
		fmt.Fprintln(out)
	}

	// The consumer indexes each unique entry into every selected
	// monitor model, serially; per-entry panics are contained like the
	// single-log ingest path.
	var mons []*monitor.Monitor
	for _, caps := range monitor.Monitors() {
		if selected(caps.Name, p.monitorFilter) && !caps.Discontinued {
			mons = append(mons, monitor.New(caps))
		}
	}
	// The certificate index rides the same consume goroutine: each
	// unique entry is parsed once and fed to both the monitor models
	// and the LSM index, tagged with the log it was first seen on.
	var ix index.Index
	if p.indexDir != "" {
		lsm, err := index.Open(index.Options{Dir: p.indexDir, Obs: reg, Journal: p.journal})
		if err != nil {
			fmt.Fprintf(os.Stderr, "ctmonitor: index: %v\n", err)
			return 1
		}
		ix = lsm
	}
	nextID := 0
	parseErrors := 0
	indexPutErrors := 0
	handle := func(src string, e ctlog.Entry) {
		cert, err := x509cert.ParseWithMode(e.DER, x509cert.ParseLenient)
		if err != nil {
			parseErrors++
			return
		}
		nextID++
		for _, m := range mons {
			indexContained(m, nextID, cert)
		}
		if ix != nil {
			for _, rec := range index.FromCert(src, uint64(e.Index), ctlog.LeafHash(e.DER), cert) {
				if err := ix.Put(rec); err != nil {
					indexPutErrors++
				}
			}
		}
	}

	// Each group commit flushes the index before any checkpoint moves,
	// so a checkpoint never points past a certificate a SIGKILL could
	// still take out of the memtable.
	var commit func() error
	if ix != nil {
		commit = ix.Flush
	}
	coord, err := fleet.New(fleet.Config{
		Logs:          fleetSpecs,
		CheckpointDir: p.checkpointDir,
		Audit:         p.audit,
		STHStoreDir:   p.sthStoreDir,
		Quorum:        p.quorum,
		QueueDepth:    p.queueDepth,
		StallAfter:    p.stallAfter,
		HandleSourced: handle,
		Commit:        commit,
		Obs:           reg,
		Tracer:        tracer,
		Journal:       p.journal,
		Flight:        p.flight,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ctmonitor: %v\n", err)
		return 1
	}

	// The query API gets its own listener behind the shedding Limiter —
	// overload on the query side must never slow the crawl down.
	if ix != nil && p.queryAddr != "" {
		reg.Help("index_server_shed_total", "Query API requests shed by the limiter, by reason.")
		lim := &serve.Limiter{
			MaxInFlight: p.queryMaxInflight,
			Rate:        p.queryRateLimit,
			Burst:       p.queryBurst,
			OnShed: func(reason string) {
				reg.Counter("index_server_shed_total", "reason", reason).Inc()
			},
			Journal: p.journal,
			Name:    "query",
		}
		qsrv := serve.New(lim.Wrap(index.Handler(ix, reg, p.journal)), serve.Config{
			Name:         "query",
			DrainTimeout: p.drain,
			Journal:      p.journal,
		})
		qln, err := net.Listen("tcp", p.queryAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ctmonitor: query listener: %v\n", err)
			return 1
		}
		fmt.Fprintf(out, "query API on http://%s/ct/v1/query\n", qln.Addr())
		qdone := make(chan error, 1)
		go func() { qdone <- qsrv.Run(ctx, qln) }()
		defer func() {
			if err := qsrv.Shutdown(context.Background()); err != nil {
				fmt.Fprintf(os.Stderr, "ctmonitor: query shutdown: %v\n", err)
			}
			<-qdone
		}()
	}

	// The SLO engine reads its signals straight off the registry: one
	// freshness rule per log (checkpoint age vs the stall budget), one
	// fleet-wide sync error-rate rule, one shed-rate rule. A page feeds
	// /readyz, so a sustained burn takes the fleet out of rotation even
	// while the quorum technically holds.
	slo := obs.NewSLOEngine(reg, p.journal)
	freshTarget := p.stallAfter
	if freshTarget <= 0 {
		freshTarget = sloFreshTarget
	}
	for _, sp := range fleetSpecs {
		name := sp.Name
		slo.AddFreshness("freshness:"+name, func() float64 {
			v, _ := reg.Sample("fleet_log_checkpoint_age_seconds", "log", name)
			return v
		}, freshTarget.Seconds(), 0.5, 1.0)
	}
	slo.AddBurnRate("sync-errors", func() float64 {
		v, _ := reg.Sample("ctlog_requests_total", "outcome", "retryable")
		return v
	}, func() float64 {
		v, _ := reg.Sum("ctlog_requests_total")
		return v
	}, sloErrObjective, sloFastWindow, sloSlowWindow, sloBurnWarn, sloBurnPage)
	if p.audit {
		// Any proof failure pages: target 1 failure, warn at half a
		// failure (unreachable for an integer — the first failure jumps
		// straight to page), so a log caught lying takes the fleet out
		// of rotation via /readyz even before the health loop pins it.
		slo.AddFreshness("proof-failures", func() float64 {
			return float64(coord.ProofFailures())
		}, 1.0, 0.5, 1.0)
	}
	slo.AddBurnRate("shed-rate", func() float64 {
		v, _ := reg.Sum("ctlog_server_shed_total")
		return v
	}, func() float64 {
		v, _ := reg.Sum("ctlog_server_requests_total")
		return v
	}, sloErrObjective, sloFastWindow, sloSlowWindow, sloBurnWarn, sloBurnPage)
	go slo.Run(ctx, sloTickEvery)

	if p.metricsAddr != "" {
		ready := func() error {
			if err := coord.Ready(); err != nil {
				return err
			}
			return slo.Err()
		}
		serveMetrics(ctx, p.metricsAddr, reg, p.journal, p.drain, ready, map[string]http.Handler{
			"/debug/fleet": coord.DebugHandler(slo, p.flight),
		})
	}

	res, err := coord.Run(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ctmonitor: fleet: %v\n", err)
		return 1
	}
	// Run has drained the feed and its last group commit has flushed
	// every Put; this flush covers a run without checkpoints (no commit
	// ran) and a last commit whose flush failed. Close is deferred
	// before the query server finishes draining, which is safe: Close
	// seals the memtable and keeps the segment set readable, so late
	// queries still see every record.
	if ix != nil {
		if err := ix.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "ctmonitor: index flush: %v\n", err)
			return 1
		}
		defer func() {
			if err := ix.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "ctmonitor: index close: %v\n", err)
			}
		}()
	}
	// An interrupted or less-than-healthy finish is a flight moment:
	// capture what every subsystem was doing as the run wound down.
	if res.Interrupted || res.FinalState != fleet.Healthy.String() {
		_, _ = p.flight.Trigger("degraded-exit")
	}

	// Per-log outcome table.
	var rows [][]string
	for _, fl := range logs {
		rep := res.Logs[fl.name]
		note := rep.State
		if rep.Err != "" {
			note += ": " + rep.Err
		}
		rows = append(rows, []string{
			fl.name,
			fl.profile,
			fmt.Sprintf("%d", fl.size),
			fmt.Sprintf("%d", rep.Stats.Fetched),
			fmt.Sprintf("%d", rep.Stats.Audited),
			fmt.Sprintf("%d", rep.Stats.SkippedEntries),
			fmt.Sprintf("%d", rep.Stats.Retries),
			fmt.Sprintf("%d", rep.Restarts),
			fmt.Sprintf("%d", rep.Stats.ResumedFrom),
			note,
		})
	}
	fmt.Fprintln(out, report.Table(
		[]string{"Log", "Profile", "Size", "Fetched", "Audited", "Skipped", "Retries", "Restarts", "Resumed", "State"},
		rows))
	fmt.Fprintf(out, "\nfleet: %d unique, %d cross-log duplicates, state %s", res.UniqueEntries, res.DupEntries, res.FinalState)
	if res.Interrupted {
		fmt.Fprintf(out, " (interrupted, checkpointed)")
	}
	fmt.Fprintln(out)

	// Query verdicts, as in single-log mode: which monitors surface the
	// forgery for the victim domain?
	if !res.Interrupted {
		var qrows [][]string
		for _, m := range mons {
			qres := m.Query(p.query)
			verdict := fmt.Sprintf("%d certificate(s) found", len(qres.IDs))
			if qres.Refused {
				verdict = "query refused: " + qres.Reason
			} else if len(qres.IDs) == 0 {
				verdict = "forgery concealed"
			}
			qrows = append(qrows, []string{m.Caps.Name, verdict})
		}
		fmt.Fprintln(out, report.Table([]string{"Monitor", fmt.Sprintf("Query %q", p.query)}, qrows))
	}

	if p.statsJSON {
		sizes := map[string]int{}
		poisoned := map[string][]int{}
		injectors := map[string]any{}
		total := 0
		for _, fl := range logs {
			sizes[fl.name] = fl.size
			total += fl.size
			if len(fl.poisoned) > 0 {
				poisoned[fl.name] = fl.poisoned
			}
			if fl.injector != nil {
				st := fl.injector.Stats()
				injectors[fl.name] = map[string]int64{"requests": st.Requests, "faults": st.Total(), "poisoned": st.Poisoned}
			}
		}
		var ixStats *index.Stats
		if ix != nil {
			st := ix.Stats()
			ixStats = &st
		}
		obj := struct {
			Mode         string                      `json:"mode"`
			Audit        bool                        `json:"audit"`
			Entries      int                         `json:"entries"`
			Interrupted  bool                        `json:"interrupted"`
			FinalState   string                      `json:"final_state"`
			Unique       int                         `json:"unique_entries"`
			Deduped      int                         `json:"dup_entries"`
			ParseErrors  int                         `json:"parse_errors"`
			IndexPutErrs int                         `json:"index_put_errors"`
			Index        *index.Stats                `json:"index,omitempty"`
			LogSizes     map[string]int              `json:"log_sizes"`
			Poisoned     map[string][]int            `json:"poisoned"`
			Injectors    map[string]any              `json:"injectors"`
			Logs         map[string]*fleet.LogReport `json:"logs"`
			Metrics      map[string]any              `json:"metrics"`
		}{"fleet", p.audit, total, res.Interrupted, res.FinalState, res.UniqueEntries, res.DupEntries,
			parseErrors, indexPutErrors, ixStats, sizes, poisoned, injectors, res.Logs, reg.VarsSnapshot()}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(obj); err != nil {
			fmt.Fprintf(os.Stderr, "ctmonitor: %v\n", err)
			return 1
		}
	}

	// Retire the per-log front ends.
	for _, fl := range logs {
		if err := fl.srv.Shutdown(context.Background()); err != nil {
			fmt.Fprintf(os.Stderr, "ctmonitor: %s shutdown: %v\n", fl.name, err)
		}
		<-fl.done
	}

	// Degraded-not-dead: a stalled log exits 0 as long as the quorum
	// holds (or the run was interrupted and will be resumed).
	if !res.Interrupted {
		if err := coord.Ready(); err != nil {
			fmt.Fprintf(os.Stderr, "ctmonitor: fleet below quorum: %v\n", err)
			return 1
		}
	}
	return 0
}

// indexContained mirrors the single-log quarantine: a hostile
// certificate that panics one monitor's index step must not take down
// the fleet consumer.
func indexContained(m *monitor.Monitor, id int, cert *x509cert.Certificate) {
	defer func() { recover() }()
	m.Index(id, cert)
}
