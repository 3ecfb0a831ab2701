// Command ctmonitor demonstrates the monitor pipeline of §6.1 as a
// service: it stands up RFC 6962-style CT logs over HTTP, submits a
// slice of the synthetic corpus (including a crafted forgery) to each,
// crawls them all through internal/fleet into the monitor models, and
// answers queries — showing which monitors surface the forgery for its
// victim domain.
//
// Every run is a fleet. -logs names the logs as name[:profile] specs
// (profiles: clean, flaky, hang, poison; see fleet.go); the default is
// a fleet of one clean log holding the whole corpus. Each log is its
// own failure domain: a supervised crawl worker that restarts with
// capped exponential backoff, its own circuit breaker, its own
// advisory-locked checkpoint; entries seen on several logs are indexed
// once.
//
// Production-hardening surface:
//
//   - The log front ends and the -metrics-addr listener run under
//     internal/serve: hardened http.Server timeouts, /healthz and
//     /readyz probes, and graceful drain on SIGINT/SIGTERM
//     (-drain bounds the drain).
//   - -rate-limit arms each log's overload shedding (429 +
//     Retry-After, counted in ctlog_server_shed_total).
//   - -breaker-threshold arms each log client's circuit breaker so a
//     dying log is probed, not hammered.
//   - -checkpoint-dir persists each log's crawl position crash-safely;
//     a restarted process resumes instead of refetching (ResumedFrom
//     in -stats-json shows the resume point).
//   - -index-dir persists a queryable certificate index, served by
//     -query-addr.
//
// On SIGTERM mid-crawl the process commits, reports what it crawled,
// and exits 0 — the next run picks up where it stopped.
//
// Observability: the whole run is instrumented through internal/obs.
// -metrics-addr serves /metrics (Prometheus text), /debug/vars,
// /debug/pprof and /debug/fleet while the crawl runs; -stats-json
// prints the final per-log SyncStats plus a metrics snapshot as one
// JSON object on stdout (human output moves to stderr); -linger keeps
// the process and its endpoints alive after the crawl so scrapers can
// collect the final state.
//
// Usage:
//
//	ctmonitor [-entries 200] [-query victim.example] [-batch 64]
//	          [-logs alpha:hang,bravo:flaky,charlie:poison,delta]
//	          [-drain 10s] [-fault-seed 42]
//	          [-max-retries 4] [-timeout 10s]
//	          [-rate-limit 100] [-rate-burst 10]
//	          [-breaker-threshold 5] [-breaker-cooldown 30s]
//	          [-checkpoint-dir DIR] [-audit] [-sth-store-dir DIR]
//	          [-index-dir DIR] [-query-addr :9091]
//	          [-monitor crt.sh] [-metrics-addr :9090] [-stats-json]
//	          [-linger 30s] [-progress 10s]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/big"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/corpus"
	"repro/internal/ctlog"
	"repro/internal/fleet"
	"repro/internal/index"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/x509cert"
)

func main() {
	os.Exit(run())
}

// run executes one fleet crawl end to end and returns the process exit
// code.
func run() int {
	entries := flag.Int("entries", 200, "corpus certificates to log")
	query := flag.String("query", "victim.example", "owner query to replay against every monitor")
	batch := flag.Int("batch", 64, "get-entries batch size")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline for the HTTP servers")
	faultSeed := flag.Int64("fault-seed", 42, "seed for the per-log fault injectors (log i uses seed+i)")
	maxRetries := flag.Int("max-retries", ctlog.DefaultMaxRetries, "HTTP retry attempts for retryable failures")
	timeout := flag.Duration("timeout", ctlog.DefaultTimeout, "per-request HTTP timeout")
	rateLimit := flag.Float64("rate-limit", 0, "sustained ct/v1 requests/second budget per log; excess sheds 429 (0 = unlimited)")
	rateBurst := flag.Int("rate-burst", 0, "token-bucket burst for -rate-limit (0 = max(1, ceil(rate)))")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive retryable failures that open a log client's circuit breaker (0 disables)")
	breakerCooldown := flag.Duration("breaker-cooldown", ctlog.DefaultBreakerCooldown, "how long an open breaker waits before a half-open probe")
	audit := flag.Bool("audit", false, "verify Merkle inclusion/consistency proofs for every crawl; a proof failure lands the log distrusted")
	sthStoreDir := flag.String("sth-store-dir", "", "persist each log's last verified tree head (CRC-sealed, crash-safe) in this directory; resumes re-anchor on it (requires -audit)")
	monitorFilter := flag.String("monitor", "", "comma-separated monitor name filter (substring match; empty = all)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars, /debug/pprof, /debug/fleet on this address (e.g. :9090)")
	statsJSON := flag.Bool("stats-json", false, "print final per-log SyncStats + metrics snapshot as one JSON object on stdout")
	linger := flag.Duration("linger", 0, "keep serving metrics and queries this long after the crawl finishes")
	progressEvery := flag.Duration("progress", 0, "emit a progress line to stderr every interval (0 disables)")
	fleetLogs := flag.String("logs", "ctlog:clean", "comma-separated name[:profile] log specs (profiles: clean, flaky, hang, poison)")
	fleetQuorum := flag.Int("fleet-quorum", 0, "non-stalled logs required for /readyz (0 = majority)")
	checkpointDir := flag.String("checkpoint-dir", "", "directory for per-log crash-safe checkpoints (one advisory-locked file per log)")
	fleetQueue := flag.Int("fleet-queue", 0, "bounded entry-feed depth shared by all crawls (0 = 256)")
	fleetStallAfter := flag.Duration("fleet-stall-after", 0, "mark a log stalled when its checkpoint stops advancing for this long (0 disables age-based stalling)")
	indexDir := flag.String("index-dir", "", "persist a queryable certificate index (LSM segment files) in this directory")
	queryAddr := flag.String("query-addr", "", "serve the /ct/v1/query lookup API on this address (requires -index-dir)")
	queryRateLimit := flag.Float64("query-rate-limit", 0, "sustained query requests/second budget; excess sheds 429 (0 = unlimited)")
	queryBurst := flag.Int("query-burst", 0, "token-bucket burst for -query-rate-limit")
	queryMaxInflight := flag.Int("query-max-inflight", 0, "cap on concurrently served queries; excess sheds 503 (0 = unlimited)")
	journalPath := flag.String("journal", "", "append schema-versioned JSONL audit events (sync, health, breaker, checkpoint, shed) to this file")
	flightDir := flag.String("flight-dir", "", "write flight-recorder dumps (JSONL) here on panic, quarantine, breaker-open, fleet transitions, SIGQUIT, and degraded exit")
	flag.Parse()

	if *sthStoreDir != "" && !*audit {
		return fail("-sth-store-dir requires -audit")
	}
	specs, err := parseFleetSpecs(*fleetLogs)
	if err != nil {
		return fail("%v", err)
	}

	// SIGINT/SIGTERM cancel this context; everything below — servers
	// and crawls alike — drains off it.
	ctx, stop := serve.SignalContext(context.Background())
	defer stop()

	// Human-readable output goes to stdout normally, to stderr when
	// stdout carries the JSON object.
	out := io.Writer(os.Stdout)
	if *statsJSON {
		out = os.Stderr
	}

	reg := obs.NewRegistry()
	tracer := obs.NewTracer(0)

	// The journal is the run's append-only audit trail; the flight
	// recorder always records into its in-memory rings and dumps to
	// -flight-dir when set.
	var journal *obs.Journal
	if *journalPath != "" {
		j, err := obs.OpenJournal(*journalPath, reg)
		if err != nil {
			return fail("journal: %v", err)
		}
		journal = j
		defer journal.Close()
	}
	flight := obs.NewFlight(*flightDir, 0, reg)
	flight.Journal = journal

	// SIGQUIT dumps the flight recorder and keeps running — the
	// "what is it doing right now" probe for a live process.
	sigquit := make(chan os.Signal, 1)
	signal.Notify(sigquit, syscall.SIGQUIT)
	go func() {
		for range sigquit {
			if path, err := flight.Trigger("sigquit"); err == nil && path != "" {
				fmt.Fprintf(os.Stderr, "ctmonitor: flight dump: %s\n", path)
			}
		}
	}()

	if *progressEvery > 0 {
		prog := obs.NewProgress(os.Stderr, reg, *progressEvery, "fleet_", "monitor_", "ctlog_")
		prog.Start()
		defer prog.Stop()
	}

	// The corpus is seeded, so a restarted process rebuilds
	// byte-identical logs and checkpointed crawls resume against
	// unchanged trees.
	c, err := corpus.Generate(corpus.Config{Size: *entries, Seed: 31})
	if err != nil {
		return fail("%v", err)
	}
	forged := buildForgery(*query)

	// The client treats 0 as "use the default", so translate the
	// flag's literal 0 into its explicit "no retries" value.
	retries := *maxRetries
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
			return fail("%v", err)
		}
		for _, e := range c.Entries[lo:hi] {
			if _, err := log.AddParsed(e.DER, false); err != nil {
				return fail("%s: %v", name, err)
			}
		}
		// Every log carries the forgery: the fleet must index it exactly
		// once and dedup the other copies.
		if _, err := log.AddParsed(forged, false); err != nil {
			return fail("%s: %v", name, err)
		}
		fl := &fleetLog{name: name, profile: profile, size: hi - lo + 1, done: make(chan error, 1)}
		if profile == "poison" {
			fl.poisoned = poisonIndices(fl.size)
		}
		fl.injector = fleetTransport(profile, *faultSeed+int64(i), *timeout, fl.poisoned)

		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail("%s listener: %v", name, err)
		}
		// Per-log front ends share the registry's ctlog_server_*
		// COUNTERS — counters aggregate cleanly across servers, and the
		// fleet-wide totals are exactly what the shed-rate SLO burns
		// against; the fleet's labeled instruments carry the per-log
		// story. The rate limit applies per log — every front end gets
		// its own token bucket.
		fl.srv = serve.New((&ctlog.Server{
			Log:       log,
			RateLimit: *rateLimit, RateBurst: *rateBurst,
			Obs:     reg,
			Journal: journal,
			Name:    "ctlog-" + name,
		}).Handler(), serve.Config{
			Name:         "ctlog-" + name,
			DrainTimeout: *drain,
			Obs:          reg,
			Journal:      journal,
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
			Timeout:    *timeout,
			Obs:        reg,
			Tracer:     tracer,
		}
		if *breakerThreshold > 0 {
			client.Breaker = &ctlog.Breaker{Threshold: *breakerThreshold, Cooldown: *breakerCooldown}
		}
		logs = append(logs, fl)
		fleetSpecs = append(fleetSpecs, fleet.LogSpec{Name: name, Client: client, Batch: *batch})
		fmt.Fprintf(out, "fleet log %-10s profile=%-6s entries=%d (corpus [%d,%d) + forgery)", name, profile, fl.size, lo, hi)
		if len(fl.poisoned) > 0 {
			fmt.Fprintf(out, " poisoned=%v", fl.poisoned)
		}
		fmt.Fprintln(out)
	}

	// The consumer indexes each unique entry into every selected
	// monitor model, serially; the fleet quarantines an entry whose
	// parse or index step panics.
	var mons []*monitor.Monitor
	for _, caps := range monitor.Monitors() {
		if selected(caps.Name, *monitorFilter) && !caps.Discontinued {
			mons = append(mons, monitor.New(caps))
		}
	}
	// The certificate index rides the same consume goroutine: each
	// unique entry is parsed once and fed to both the monitor models
	// and the LSM index, tagged with the log it was first seen on.
	var ix index.Index
	if *indexDir != "" {
		lsm, err := index.Open(index.Options{Dir: *indexDir, Obs: reg, Journal: journal})
		if err != nil {
			return fail("index: %v", err)
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
			m.Index(nextID, cert)
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
		CheckpointDir: *checkpointDir,
		Audit:         *audit,
		STHStoreDir:   *sthStoreDir,
		Quorum:        *fleetQuorum,
		QueueDepth:    *fleetQueue,
		StallAfter:    *fleetStallAfter,
		HandleSourced: handle,
		Commit:        commit,
		Obs:           reg,
		Tracer:        tracer,
		Journal:       journal,
		Flight:        flight,
	})
	if err != nil {
		return fail("%v", err)
	}

	// The query API gets its own listener behind the shedding Limiter —
	// overload on the query side must never slow the crawl down.
	if ix != nil && *queryAddr != "" {
		reg.Help("index_server_shed_total", "Query API requests shed by the limiter, by reason.")
		lim := &serve.Limiter{
			MaxInFlight: *queryMaxInflight,
			Rate:        *queryRateLimit,
			Burst:       *queryBurst,
			OnShed: func(reason string) {
				reg.Counter("index_server_shed_total", "reason", reason).Inc()
			},
			Journal: journal,
			Name:    "query",
		}
		qsrv := serve.New(lim.Wrap(index.Handler(ix, reg, journal)), serve.Config{
			Name:         "query",
			DrainTimeout: *drain,
			Journal:      journal,
		})
		qln, err := net.Listen("tcp", *queryAddr)
		if err != nil {
			return fail("query listener: %v", err)
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
	slo := obs.NewSLOEngine(reg, journal)
	freshTarget := *fleetStallAfter
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
	if *audit {
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

	if *metricsAddr != "" {
		ready := func() error {
			if err := coord.Ready(); err != nil {
				return err
			}
			return slo.Err()
		}
		serveMetrics(ctx, *metricsAddr, reg, journal, *drain, ready, map[string]http.Handler{
			"/debug/fleet": coord.DebugHandler(slo, flight),
		})
	}

	res, err := coord.Run(ctx)
	if err != nil {
		return fail("fleet: %v", err)
	}
	// Run has drained the feed and its last group commit has flushed
	// every Put; this flush covers a run without checkpoints (no commit
	// ran) and a last commit whose flush failed. Close is deferred
	// before the query server finishes draining, which is safe: Close
	// seals the memtable and keeps the segment set readable, so late
	// queries still see every record.
	if ix != nil {
		if err := ix.Flush(); err != nil {
			return fail("index flush: %v", err)
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
		_, _ = flight.Trigger("degraded-exit")
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
	if res.Quarantined > 0 {
		fmt.Fprintf(out, ", %d quarantined", res.Quarantined)
	}
	if res.Interrupted {
		fmt.Fprintf(out, " (interrupted, checkpointed)")
	}
	fmt.Fprintln(out)

	// Query verdicts: which monitors surface the forgery for the victim
	// domain?
	if !res.Interrupted {
		var qrows [][]string
		for _, m := range mons {
			qres := m.Query(*query)
			verdict := fmt.Sprintf("%d certificate(s) found", len(qres.IDs))
			if qres.Refused {
				verdict = "query refused: " + qres.Reason
			} else if len(qres.IDs) == 0 {
				verdict = "forgery concealed"
			}
			qrows = append(qrows, []string{m.Caps.Name, verdict})
		}
		fmt.Fprintln(out, report.Table([]string{"Monitor", fmt.Sprintf("Query %q", *query)}, qrows))
	}

	if *statsJSON {
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
		}{"fleet", *audit, total, res.Interrupted, res.FinalState, res.UniqueEntries, res.DupEntries,
			parseErrors, indexPutErrors, ixStats, sizes, poisoned, injectors, res.Logs, reg.VarsSnapshot()}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(obj); err != nil {
			return fail("%v", err)
		}
	}

	if *linger > 0 && !res.Interrupted {
		fmt.Fprintf(os.Stderr, "ctmonitor: lingering %v for scrapers\n", *linger)
		select {
		case <-time.After(*linger):
		case <-ctx.Done():
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
			return fail("fleet below quorum: %v", err)
		}
	}
	return 0
}

// selected applies the -monitor filter: empty matches everything,
// otherwise any comma-separated term must appear in the name
// (case-insensitive).
func selected(name, filter string) bool {
	if strings.TrimSpace(filter) == "" {
		return true
	}
	for _, term := range strings.Split(filter, ",") {
		term = strings.TrimSpace(term)
		if term != "" && strings.Contains(strings.ToLower(name), strings.ToLower(term)) {
			return true
		}
	}
	return false
}

// serveMetrics mounts the registry's exposition endpoints — plus any
// extra debug mounts (e.g. /debug/fleet) — on a dedicated hardened
// listener that drains with the process.
func serveMetrics(ctx context.Context, addr string, reg *obs.Registry, journal *obs.Journal, drain time.Duration, ready func() error, mounts map[string]http.Handler) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal("metrics listener: %v", err)
	}
	h := http.Handler(reg.Handler())
	if len(mounts) > 0 {
		mux := http.NewServeMux()
		for path, mh := range mounts {
			mux.Handle(path, mh)
		}
		mux.Handle("/", h)
		h = mux
	}
	srv := serve.New(h, serve.Config{
		Name:         "metrics",
		DrainTimeout: drain,
		Ready:        ready,
		Obs:          reg,
		Journal:      journal,
	})
	fmt.Fprintf(os.Stderr, "ctmonitor: metrics at http://%s/metrics\n", ln.Addr())
	go func() {
		if err := srv.Run(ctx, ln); err != nil {
			fmt.Fprintf(os.Stderr, "ctmonitor: metrics server: %v\n", err)
		}
	}()
}

// buildForgery crafts the §6.1 NUL-bearing certificate targeting the
// victim domain.
func buildForgery(victim string) []byte {
	key, err := x509cert.GenerateKey(777)
	if err != nil {
		fatal("%v", err)
	}
	crafted := victim + "\x00.attacker.site"
	der, err := x509cert.Build(&x509cert.Template{
		SerialNumber: big.NewInt(666),
		Issuer:       x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDCommonName, "Compromised CA")),
		Subject:      x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDCommonName, crafted)),
		NotBefore:    time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:     time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC),
		SAN:          []x509cert.GeneralName{x509cert.DNSName(crafted)},
	}, key, key)
	if err != nil {
		fatal("%v", err)
	}
	return der
}

// fail reports a run-ending error and returns the failing exit code,
// so run's deferred cleanup still happens.
func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "ctmonitor: "+format+"\n", args...)
	return 1
}

func fatal(format string, args ...any) {
	os.Exit(fail(format, args...))
}
