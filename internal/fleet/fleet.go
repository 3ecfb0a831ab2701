package fleet

// Multi-log fleet coordination. Real CT monitors do not watch one log:
// they crawl dozens, any of which can hang, rot, rate-limit, or serve
// poisoned entries at any time — and the paper's §6.1 blind spots get
// strictly worse when one sick log can stall the whole monitor. The
// Coordinator therefore runs each log's crawl as an independent
// failure domain: its own supervisor restart loop, its own circuit
// breaker (on the per-log ctlog.Client), its own crash-safe checkpoint
// file under an advisory lock. Entries from every log funnel through
// one bounded feed — the global backpressure seam — into a single
// consumer, deduplicated fleet-wide by leaf hash so cross-logged
// certificates (the normal case: CAs submit to several logs) are
// indexed once.
//
// Progress is group-committed. The crawls only stage their positions;
// one committer goroutine, about once a second and once more after the
// feed drains, reads each log's cut — the newest staged position whose
// forwarded entries the consumer has all handled — runs Config.Commit
// to make that handled work durable, and only then writes each log's
// verified-head anchor and checkpoint. A checkpoint therefore never
// points past an entry that a crash could still lose.
//
// Health is evaluated by ONE goroutine on a timer, never by the
// workers themselves, so state transitions are counted exactly once:
// per log, healthy → degraded (breaker open or restarts accumulating)
// → stalled (checkpoint age beyond StallAfter, or the supervisor's
// restart budget exhausted); fleet-wide, ready iff at least Quorum of
// the logs are not stalled. A poisoned log that is skipping entries by
// bisection stays HEALTHY — skips are progress; that is the designed
// degradation, not a failure. Under Config.Audit the calculus changes:
// every batch must prove itself against the log's signed tree head, a
// skip would be an unverifiable hole, and a failed proof pins the log
// DISTRUSTED — terminally, because a forged tree cannot be retried
// into honesty — while its siblings keep crawling.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ctlog"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// State is a log's (or the whole fleet's) health.
type State int32

// Health states, ordered by severity. Distrusted outranks Stalled: a
// stalled log is sick, a distrusted one was caught lying — its Merkle
// proofs failed verification — and no restart budget or backoff can
// make a forged tree head verify.
const (
	Healthy State = iota
	Degraded
	Stalled
	Distrusted
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Stalled:
		return "stalled"
	case Distrusted:
		return "distrusted"
	default:
		return "unknown"
	}
}

// LogSpec describes one log the fleet crawls.
type LogSpec struct {
	// Name labels the log in metrics, reports, and checkpoint paths.
	Name string
	// Client is this log's private client. Give each spec its OWN
	// client (and breaker): a shared breaker would let one sick log
	// open the circuit for every healthy one, which is exactly the
	// failure coupling the fleet exists to prevent.
	Client *ctlog.Client
	// Batch is the per-request entry window (default 64).
	Batch int
}

// Config tunes a Coordinator. Logs is required; everything else has
// workable defaults.
type Config struct {
	Logs []LogSpec
	// CheckpointDir is where per-log checkpoint files live (one file
	// per log, <dir>/<name>.ckpt, advisory-locked). Empty disables
	// checkpoint persistence.
	CheckpointDir string
	// Quorum is how many logs must be non-stalled for the fleet to be
	// ready (default: majority, N/2+1).
	Quorum int
	// QueueDepth bounds the shared entry feed (default 256). When the
	// consumer falls behind, every crawl blocks at this depth — global
	// backpressure.
	QueueDepth int
	// MaxRestarts is each log's supervisor restart budget per
	// coordinator run (default monitor.DefaultMaxRestarts).
	MaxRestarts int
	// StallAfter marks a still-running log stalled when its checkpoint
	// has not advanced for this long (0 disables age-based stalling;
	// supervisor exhaustion always stalls a log).
	StallAfter time.Duration
	// Audit enables Merkle verification on every crawl: inclusion for
	// each fetched batch and consistency across each STH advance. A
	// proof failure is terminal for that log — it lands Distrusted and
	// stops feeding the shared sink, while its siblings keep crawling.
	Audit bool
	// STHStoreDir is where per-log verified-tree-head anchors live
	// (<dir>/<name>.sth) when Audit is set. Empty keeps anchors
	// in-memory only (a restart re-anchors from scratch). No separate
	// lock: the checkpoint flock already serializes workers per log.
	STHStoreDir string
	// HealthEvery is the health-evaluation cadence (default 250ms).
	HealthEvery time.Duration
	// Handle consumes each unique (first-seen across all logs) entry,
	// serially from one goroutine. Nil means count-only. A panic in
	// Handle or HandleSourced is contained to its entry: the entry is
	// quarantined (Result.Quarantined, monitor_quarantined_entries_total,
	// a monitor.quarantine journal event, a flight dump) and still
	// counts as handled, so the commit cut moves past it.
	Handle func(e ctlog.Entry)
	// HandleSourced, when non-nil, additionally receives each unique
	// entry together with the name of the log it was first seen on —
	// the cross-log provenance consumers like the certificate index
	// record. Called serially from the same goroutine as Handle.
	HandleSourced func(log string, e ctlog.Entry)
	// Commit, when non-nil, makes durable everything Handle and
	// HandleSourced have done so far (cmd/ctmonitor flushes its index).
	// Each group commit calls it once, after reading every log's cut and
	// before writing any anchor or checkpoint. An error fails that
	// commit — counted in SyncStats.CheckpointErrors and
	// monitor_checkpoint_persist_errors_total, journaled — and the
	// staged positions wait for the next commit; the crawls go on.
	Commit func() error
	// Obs, when non-nil, receives the fleet instruments:
	// fleet_log_state{log}, fleet_state, fleet_state_transitions_total,
	// fleet_log_restarts_total{log}, fleet_log_checkpoint{log},
	// fleet_log_committed{log}, fleet_entries_unique_total,
	// fleet_entries_deduped_total, the fleet_feed_* backpressure
	// series, monitor_checkpoint_persist_errors_total and
	// monitor_quarantined_entries_total.
	Obs *obs.Registry
	// Tracer, when non-nil, is shared by all crawls.
	Tracer *obs.Tracer
	// Journal, when non-nil, receives the fleet's audit events:
	// fleet.log_state and fleet.state health transitions,
	// breaker.transition for every per-log breaker flip,
	// monitor.quarantine for each entry whose handler panicked, and the
	// per-crawl monitor.* events from each worker's sync.
	Journal *obs.Journal
	// Flight, when non-nil, is threaded into every worker's crawl and
	// supervisor; fleet health transitions, breaker-opens and
	// quarantined entries trigger dumps.
	Flight *obs.Flight
	// Backoff/sleep overrides for tests.
	BaseBackoff time.Duration
	Sleep       func(context.Context, time.Duration) error
}

func (c Config) quorum() int {
	if c.Quorum > 0 {
		return c.Quorum
	}
	return len(c.Logs)/2 + 1
}

func (c Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 256
}

func (c Config) healthEvery() time.Duration {
	if c.HealthEvery > 0 {
		return c.HealthEvery
	}
	return 250 * time.Millisecond
}

// LogReport is one log's outcome in a Result.
type LogReport struct {
	Name string `json:"name"`
	// Stats sums the crawl stats across every supervised run this
	// coordinator performed for the log; ResumedFrom is the first
	// run's resume point.
	Stats    monitor.SyncStats `json:"stats"`
	Restarts int               `json:"restarts"`
	State    string            `json:"state"`
	// Err is the terminal failure when the log's supervisor gave up.
	Err string `json:"err,omitempty"`
}

// Result is a completed (or interrupted) coordinator run.
type Result struct {
	Logs map[string]*LogReport `json:"logs"`
	// UniqueEntries counts first-seen entries delivered downstream;
	// DupEntries counts cross-log duplicates dropped at the sink. Per
	// run: unique + deduped == Σ per-log non-precert fetches.
	UniqueEntries int `json:"unique_entries"`
	DupEntries    int `json:"dup_entries"`
	// Quarantined counts unique entries whose Handle or HandleSourced
	// panicked; they are included in UniqueEntries.
	Quarantined int    `json:"quarantined"`
	Interrupted bool   `json:"interrupted"`
	FinalState  string `json:"final_state"`
}

// worker is one log's failure domain.
type worker struct {
	spec  LogSpec
	mon   *monitor.Monitor // crawl cursor only; entries route through the sink
	store *monitor.LockedFileCheckpointStore
	opts  monitor.SyncOptions // the crawl's options; commits publish through its stores

	// handled counts this log's forwarded entries whose Handle and
	// HandleSourced calls have returned; the commit cut compares it
	// with the forwarded count each staged position carries.
	handled atomic.Int64

	state       atomic.Int32 // State; written only by the health evaluator
	restarts    atomic.Int32
	consecFails atomic.Int32
	checkpoint  atomic.Int64
	done        atomic.Bool
	gaveUp      atomic.Bool
	distrusted  atomic.Bool

	mu    sync.Mutex
	stats monitor.SyncStats
	err   error

	stateGauge *obs.Gauge
	restartCtr *obs.Counter
}

func (w *worker) addStats(s monitor.SyncStats) {
	w.mu.Lock()
	defer w.mu.Unlock()
	first := w.stats.Duration == 0 && w.stats.Fetched == 0 && w.stats.ResumedFrom == 0
	if first {
		w.stats.ResumedFrom = s.ResumedFrom
	}
	w.stats.Fetched += s.Fetched
	w.stats.Precerts += s.Precerts
	w.stats.ParseErrors += s.ParseErrors
	w.stats.Indexed += s.Indexed
	w.stats.Retries += s.Retries
	w.stats.SkippedEntries += s.SkippedEntries
	w.stats.Forwarded += s.Forwarded
	w.stats.Deduped += s.Deduped
	w.stats.Quarantined += s.Quarantined
	w.stats.CheckpointErrors += s.CheckpointErrors
	w.stats.Bisections += s.Bisections
	w.stats.Audited += s.Audited
	w.stats.ProofFailures += s.ProofFailures
	w.stats.Duration += s.Duration
}

func (w *worker) snapshotStats() monitor.SyncStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// sourced is a feed element: one entry plus the log it came from, so
// the consumer can hand provenance to the index and count the entry
// handled for that log's commit cut.
type sourced struct {
	w *worker
	e ctlog.Entry
}

// commitInterval is the group-commit interval.
const commitInterval = time.Second

// Coordinator runs one crawl worker per configured log.
type Coordinator struct {
	cfg     Config
	workers []*worker
	feed    *pipeline.Feed[sourced]

	dedupMu sync.Mutex
	seen    map[ctlog.Hash]struct{}

	// commitMu serializes group commits; commitEvery is their interval,
	// commitInterval unless a test shortens it.
	commitMu    sync.Mutex
	commitEvery time.Duration

	fleetState  atomic.Int32
	unique      atomic.Int64
	dups        atomic.Int64
	quarantined atomic.Int64
	stateGauge  *obs.Gauge
	uniqueCtr   *obs.Counter
	dedupedCtr  *obs.Counter
	cpErrors    *obs.Counter
	quarCtr     *obs.Counter
	transitions map[State]*obs.Counter
	ring        *obs.FlightRing
}

// New validates cfg and builds a Coordinator. Checkpoint locks are NOT
// taken here — Run acquires and releases them.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Logs) == 0 {
		return nil, fmt.Errorf("fleet: no logs configured")
	}
	names := map[string]bool{}
	c := &Coordinator{cfg: cfg, seen: make(map[ctlog.Hash]struct{}), commitEvery: commitInterval}
	for _, spec := range cfg.Logs {
		if spec.Name == "" {
			return nil, fmt.Errorf("fleet: log with empty name")
		}
		if names[spec.Name] {
			return nil, fmt.Errorf("fleet: duplicate log name %q", spec.Name)
		}
		names[spec.Name] = true
		if spec.Client == nil {
			return nil, fmt.Errorf("fleet: log %q has no client", spec.Name)
		}
		w := &worker{spec: spec, mon: monitor.New(monitor.Monitors()[0])}
		c.workers = append(c.workers, w)
	}
	if q := cfg.quorum(); q > len(cfg.Logs) {
		return nil, fmt.Errorf("fleet: quorum %d exceeds %d logs", q, len(cfg.Logs))
	}
	c.feed = pipeline.NewFeed[sourced](cfg.queueDepth(), "fleet_feed", cfg.Obs)
	c.ring = cfg.Flight.Ring("fleet")
	c.instrument()
	c.instrumentBreakers()
	return c, nil
}

// instrumentBreakers journals every per-log breaker transition and
// dumps the flight recorder when a breaker trips open — a breaker-open
// is the moment a log's failure domain proved sick, and the ring holds
// the lead-up. Hooks are installed before any crawl traffic, and the
// breaker fires them outside its own lock.
func (c *Coordinator) instrumentBreakers() {
	for _, w := range c.workers {
		b := w.spec.Client.Breaker
		if b == nil {
			continue
		}
		name := w.spec.Name
		b.OnTransition = func(from, to int32) {
			c.ring.Record("breaker", name, int64(from), int64(to))
			c.cfg.Journal.Emit(nil, "breaker.transition", map[string]any{
				"name": name, "from": ctlog.BreakerStateName(from), "to": ctlog.BreakerStateName(to),
			})
			if to == ctlog.BreakerOpen {
				_, _ = c.cfg.Flight.Trigger("breaker-open")
			}
		}
	}
}

func (c *Coordinator) instrument() {
	reg := c.cfg.Obs
	c.transitions = map[State]*obs.Counter{}
	if reg == nil {
		// Nil-safe instruments keep the hot paths branch-free.
		for _, s := range []State{Healthy, Degraded, Stalled, Distrusted} {
			c.transitions[s] = nil
		}
		return
	}
	reg.Help("fleet_log_state", "Per-log health (0 healthy, 1 degraded, 2 stalled, 3 distrusted).")
	reg.Help("fleet_state", "Fleet health (0 healthy, 1 degraded, 2 stalled).")
	reg.Help("fleet_state_transitions_total", "Fleet state transitions by destination state.")
	reg.Help("fleet_log_state_transitions_total", "Per-log health transitions by log and destination state.")
	reg.Help("fleet_log_restarts_total", "Per-log supervised crawl restarts.")
	reg.Help("fleet_log_checkpoint", "Per-log next index the crawl will fetch.")
	reg.Help("fleet_log_committed", "Per-log next index of the last committed checkpoint; every entry below it is durable.")
	reg.Help("monitor_checkpoint_persist_errors_total", "Checkpoint saves that failed (crawl continued).")
	reg.Help("monitor_quarantined_entries_total", "Entries whose parse/index step panicked and was contained.")
	reg.Help("fleet_log_checkpoint_age_seconds", "Per-log seconds since the crawl last advanced; the freshness-SLO source.")
	reg.Help("fleet_entries_unique_total", "First-seen entries delivered downstream (cross-log dedup winners).")
	reg.Help("fleet_entries_deduped_total", "Cross-log duplicate entries dropped at the fleet sink.")
	reg.Help("fleet_logs", "Number of logs the fleet crawls.")
	reg.Help("fleet_quorum", "Non-stalled logs required for readiness.")
	c.stateGauge = reg.Gauge("fleet_state")
	c.uniqueCtr = reg.Counter("fleet_entries_unique_total")
	c.dedupedCtr = reg.Counter("fleet_entries_deduped_total")
	c.cpErrors = reg.Counter("monitor_checkpoint_persist_errors_total")
	c.quarCtr = reg.Counter("monitor_quarantined_entries_total")
	for _, s := range []State{Healthy, Degraded, Stalled, Distrusted} {
		c.transitions[s] = reg.Counter("fleet_state_transitions_total", "to", s.String())
	}
	reg.Gauge("fleet_logs").Set(float64(len(c.workers)))
	reg.Gauge("fleet_quorum").Set(float64(c.cfg.quorum()))
	for _, w := range c.workers {
		w.stateGauge = reg.Gauge("fleet_log_state", "log", w.spec.Name)
		w.restartCtr = reg.Counter("fleet_log_restarts_total", "log", w.spec.Name)
		w := w
		reg.GaugeFunc("fleet_log_checkpoint", func() float64 { return float64(w.checkpoint.Load()) }, "log", w.spec.Name)
		reg.GaugeFunc("fleet_log_committed", func() float64 { return float64(w.mon.Committed()) }, "log", w.spec.Name)
		reg.GaugeFunc("fleet_log_checkpoint_age_seconds", func() float64 { return w.checkpointAge().Seconds() }, "log", w.spec.Name)
	}
}

// checkpointAge reports how long this log's crawl has gone without
// advancing (0 before the first advance or after a clean finish — a
// done log is not "stale", it is complete).
func (w *worker) checkpointAge() time.Duration {
	if w.done.Load() {
		return 0
	}
	last := w.mon.LastAdvance()
	if last.IsZero() {
		return 0
	}
	return time.Since(last)
}

// State returns the fleet's current health.
func (c *Coordinator) State() State { return State(c.fleetState.Load()) }

// ProofFailures sums Merkle proof-verification failures across every
// log's crawl so far — the signal an SLO pages on: under audit, any
// nonzero value means a log served something it could not prove.
func (c *Coordinator) ProofFailures() int {
	n := 0
	for _, w := range c.workers {
		n += w.snapshotStats().ProofFailures
	}
	return n
}

// LogState returns one log's current health (Healthy for unknown
// names, matching the zero value).
func (c *Coordinator) LogState(name string) State {
	for _, w := range c.workers {
		if w.spec.Name == name {
			return State(w.state.Load())
		}
	}
	return Healthy
}

// Ready implements the /readyz quorum rule: nil while at least Quorum
// logs are neither stalled nor distrusted, an error naming the down
// logs otherwise. A distrusted log counts against quorum exactly like
// a stalled one — verified entries stop flowing either way.
func (c *Coordinator) Ready() error {
	alive, down := 0, []string{}
	for _, w := range c.workers {
		if s := State(w.state.Load()); s == Stalled || s == Distrusted {
			down = append(down, w.spec.Name)
		} else {
			alive++
		}
	}
	if q := c.cfg.quorum(); alive < q {
		sort.Strings(down)
		return fmt.Errorf("fleet: %d/%d logs alive, quorum %d (down: %s)",
			alive, len(c.workers), q, strings.Join(down, ","))
	}
	return nil
}

// checkpointPath resolves a spec's checkpoint file, or "" for none.
func (c *Coordinator) checkpointPath(spec LogSpec) string {
	if c.cfg.CheckpointDir == "" {
		return ""
	}
	return filepath.Join(c.cfg.CheckpointDir, spec.Name+".ckpt")
}

// sink builds one worker's SyncOptions.Sink: fleet-wide dedup by leaf
// hash, then a blocking Put into the bounded feed (the backpressure
// seam). The hash is marked seen BEFORE Put so two logs racing the
// same certificate cannot both deliver it, and unmarked if Put fails
// so the crawl's resume re-delivers an entry that never made it
// downstream.
func (c *Coordinator) sink(ctx context.Context, w *worker) func(ctlog.Entry) (monitor.SinkAction, error) {
	return func(e ctlog.Entry) (monitor.SinkAction, error) {
		h := ctlog.LeafHash(e.DER)
		c.dedupMu.Lock()
		if _, dup := c.seen[h]; dup {
			c.dedupMu.Unlock()
			c.dups.Add(1)
			c.dedupedCtr.Inc()
			w.checkpoint.Store(int64(e.Index + 1))
			return monitor.SinkDuplicate, nil
		}
		c.seen[h] = struct{}{}
		c.dedupMu.Unlock()
		if err := c.feed.Put(ctx, sourced{w: w, e: e}); err != nil {
			c.dedupMu.Lock()
			delete(c.seen, h)
			c.dedupMu.Unlock()
			return 0, err
		}
		w.checkpoint.Store(int64(e.Index + 1))
		return monitor.SinkForward, nil
	}
}

// Run crawls every configured log to its current head concurrently and
// returns when all logs are done (or have exhausted their restart
// budget) and the feed is drained, or when ctx ends — then with
// Result.Interrupted set. The error is reserved for setup failures
// (checkpoint lock collisions, unusable checkpoint dir); per-log crawl
// failures are reported in the Result, not as an error — a dead log
// must not look like a dead fleet.
func (c *Coordinator) Run(ctx context.Context) (*Result, error) {
	// Acquire every checkpoint lock before starting any crawl: a
	// misconfigured fleet (two logs sharing a path) must fail fast and
	// whole, not half-start.
	if c.cfg.CheckpointDir != "" {
		if err := os.MkdirAll(c.cfg.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("fleet: checkpoint dir: %w", err)
		}
	}
	if c.cfg.Audit && c.cfg.STHStoreDir != "" {
		if err := os.MkdirAll(c.cfg.STHStoreDir, 0o755); err != nil {
			return nil, fmt.Errorf("fleet: sth store dir: %w", err)
		}
	}
	for _, w := range c.workers {
		if path := c.checkpointPath(w.spec); path != "" {
			store, err := monitor.AcquireFileCheckpointStore(path)
			if err != nil {
				c.releaseStores()
				return nil, fmt.Errorf("fleet: log %q: %w", w.spec.Name, err)
			}
			w.store = store
		}
	}
	defer c.releaseStores()
	for _, w := range c.workers {
		w.opts = c.syncOptions(ctx, w)
	}

	healthCtx, stopHealth := context.WithCancel(context.Background())
	healthDone := make(chan struct{})
	go c.healthLoop(healthCtx, healthDone)

	consumerDone := make(chan struct{})
	go c.consume(consumerDone)

	commitCtx, stopCommits := context.WithCancel(context.Background())
	commitDone := make(chan struct{})
	go c.commitLoop(commitCtx, commitDone)

	var wg sync.WaitGroup
	for _, w := range c.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			c.runWorker(ctx, w)
		}(w)
	}
	wg.Wait()
	c.feed.Close()
	<-consumerDone
	// The feed is drained, so every forwarded entry is handled: the last
	// commit can take each log's final position.
	stopCommits()
	<-commitDone
	c.commit()

	// One final evaluation so the result reflects the end state, then
	// stop the evaluator.
	c.evalHealth()
	stopHealth()
	<-healthDone

	res := &Result{
		Logs:          map[string]*LogReport{},
		UniqueEntries: int(c.unique.Load()),
		DupEntries:    int(c.dups.Load()),
		Quarantined:   int(c.quarantined.Load()),
		Interrupted:   ctx.Err() != nil,
		FinalState:    c.State().String(),
	}
	for _, w := range c.workers {
		rep := &LogReport{
			Name:     w.spec.Name,
			Stats:    w.snapshotStats(),
			Restarts: int(w.restarts.Load()),
			State:    State(w.state.Load()).String(),
		}
		w.mu.Lock()
		if w.err != nil {
			rep.Err = w.err.Error()
		}
		w.mu.Unlock()
		res.Logs[w.spec.Name] = rep
	}
	return res, nil
}

func (c *Coordinator) releaseStores() {
	for _, w := range c.workers {
		if w.store != nil {
			w.store.Close()
			w.store = nil
		}
	}
}

// syncOptions builds one log's crawl options. Per-log sync metrics
// stay OFF the shared registry (monitor_* series are unlabeled
// globals; four crawls would fight over them) — the fleet's labeled
// instruments carry the per-log story instead.
func (c *Coordinator) syncOptions(ctx context.Context, w *worker) monitor.SyncOptions {
	opts := monitor.SyncOptions{
		Batch:   w.spec.Batch,
		Tracer:  c.cfg.Tracer,
		Sink:    c.sink(ctx, w),
		Name:    w.spec.Name,
		Journal: c.cfg.Journal,
		Flight:  c.cfg.Flight,
		Audit:   c.cfg.Audit,
	}
	if w.store != nil {
		opts.Checkpoints = w.store
	}
	if c.cfg.Audit && c.cfg.STHStoreDir != "" {
		opts.STHStore = &monitor.FileSTHStore{Path: filepath.Join(c.cfg.STHStoreDir, w.spec.Name+".sth")}
	}
	return opts
}

// runWorker is one log's failure domain: a supervised single-pass
// crawl to the log's current head.
func (c *Coordinator) runWorker(ctx context.Context, w *worker) {
	opts := w.opts
	err := monitor.Supervise(ctx, monitor.SupervisorOptions{
		MaxRestarts: c.cfg.MaxRestarts,
		BaseBackoff: c.cfg.BaseBackoff,
		Sleep:       c.cfg.Sleep,
		Obs:         c.cfg.Obs,
		Flight:      c.cfg.Flight,
		// A proof failure is not a transient fault: restarting the crawl
		// would just refetch the same forged tree. Let it surface at once
		// so the health evaluator can mark the log distrusted.
		Terminal: func(err error) bool { return errors.Is(err, monitor.ErrProofFailure) },
		OnRestart: func(r monitor.Restart) {
			w.restarts.Add(1)
			w.consecFails.Add(1)
			w.restartCtr.Inc()
		},
	}, func(ctx context.Context) error {
		stats, err := w.mon.SyncFromLog(ctx, w.spec.Client, opts)
		w.addStats(stats)
		w.checkpoint.Store(int64(w.mon.Checkpoint()))
		if err != nil {
			return err
		}
		w.consecFails.Store(0)
		return nil
	})
	w.done.Store(true)
	if err != nil && ctx.Err() == nil {
		if errors.Is(err, monitor.ErrProofFailure) {
			// The log was caught lying. Nothing more from it reaches the
			// dedup sink (its crawl is over), and the health evaluator
			// will pin it Distrusted; siblings are unaffected.
			w.distrusted.Store(true)
		} else {
			// Restart budget exhausted while the fleet was still supposed
			// to run: this log is terminally stuck. The others keep going.
			w.gaveUp.Store(true)
		}
		w.mu.Lock()
		w.err = err
		w.mu.Unlock()
	}
}

// consume drains the feed serially into Handle. It uses a background
// context on purpose: entries already accepted into the feed are
// delivered even during shutdown — the feed is bounded, so this drains
// quickly — and the loop ends when Run closes the feed. An entry whose
// handler panics is quarantined, and it still counts as handled: the
// handler is done with it, so the commit cut may move past it.
func (c *Coordinator) consume(done chan<- struct{}) {
	defer close(done)
	for {
		s, ok, _ := c.feed.Get(context.Background())
		if !ok {
			return
		}
		c.unique.Add(1)
		c.uniqueCtr.Inc()
		if !c.handle(s) {
			c.quarantine(s)
		}
		s.w.handled.Add(1)
	}
}

// handle runs the consumer callbacks on one entry and reports whether
// they returned; a panic — a hostile certificate hitting a parser or
// index edge case — is recovered and reported as false.
func (c *Coordinator) handle(s sourced) (ok bool) {
	defer func() { recover() }()
	if c.cfg.Handle != nil {
		c.cfg.Handle(s.e)
	}
	if c.cfg.HandleSourced != nil {
		c.cfg.HandleSourced(s.w.spec.Name, s.e)
	}
	return true
}

// quarantine records one contained handler panic in every sink: the
// result count, the counter, the flight ring, the journal, and a
// flight dump of the moments before it.
func (c *Coordinator) quarantine(s sourced) {
	c.quarantined.Add(1)
	c.quarCtr.Inc()
	c.ring.Record("quarantine", s.w.spec.Name, int64(s.e.Index), 0)
	c.cfg.Journal.Emit(nil, "monitor.quarantine", map[string]any{
		"log": s.w.spec.Name, "index": s.e.Index,
	})
	_, _ = c.cfg.Flight.Trigger("quarantine")
}

// commitLoop runs a group commit every commitEvery until stopped; Run
// makes the final commit itself once the feed has drained.
func (c *Coordinator) commitLoop(ctx context.Context, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(c.commitEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.commit()
		}
	}
}

// commit is one group commit across every log (monitor.Commit: the
// cuts, then Config.Commit, then each log's anchor and checkpoint). A
// log whose commit failed counts it and retries at the next commit.
func (c *Coordinator) commit() {
	c.commitMu.Lock()
	defer c.commitMu.Unlock()
	targets := make([]monitor.CommitTarget, len(c.workers))
	for i, w := range c.workers {
		targets[i] = monitor.CommitTarget{Monitor: w.mon, Opts: w.opts, Handled: w.handled.Load()}
	}
	for i, err := range monitor.Commit(context.Background(), targets, c.cfg.Commit) {
		if err == nil {
			continue
		}
		w := c.workers[i]
		w.mu.Lock()
		w.stats.CheckpointErrors++
		w.mu.Unlock()
		c.cpErrors.Inc()
	}
}

// healthLoop re-evaluates fleet health on a timer until stopped. It is
// the ONLY writer of state fields and transition counters, so a
// transition is counted exactly once no matter how many goroutines
// observe the underlying signals.
func (c *Coordinator) healthLoop(ctx context.Context, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(c.cfg.healthEvery())
	defer t.Stop()
	c.evalHealth()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.evalHealth()
		}
	}
}

// evalHealth derives each log's state from its failure-domain signals
// and rolls them up into the fleet state.
func (c *Coordinator) evalHealth() {
	now := time.Now()
	healthyLogs, downLogs := 0, 0
	for _, w := range c.workers {
		s := Healthy
		switch {
		case w.distrusted.Load():
			s = Distrusted
		case w.gaveUp.Load():
			s = Stalled
		case w.done.Load():
			s = Healthy // finished its pass cleanly
		default:
			if c.cfg.StallAfter > 0 {
				if last := w.mon.LastAdvance(); !last.IsZero() && now.Sub(last) > c.cfg.StallAfter {
					s = Stalled
				}
			}
			if s == Healthy {
				breakerOpen := w.spec.Client.Breaker != nil && w.spec.Client.Breaker.State() != ctlog.BreakerClosed
				if breakerOpen || w.consecFails.Load() > 0 {
					s = Degraded
				}
			}
		}
		if prev := State(w.state.Swap(int32(s))); prev != s {
			if c.cfg.Obs != nil {
				c.cfg.Obs.Counter("fleet_log_state_transitions_total", "log", w.spec.Name, "to", s.String()).Inc()
			}
			c.ring.Record("log-state", w.spec.Name, int64(prev), int64(s))
			c.cfg.Journal.Emit(nil, "fleet.log_state", map[string]any{
				"log": w.spec.Name, "from": prev.String(), "to": s.String(),
				"restarts": int(w.restarts.Load()),
			})
		}
		w.stateGauge.Set(float64(s))
		switch s {
		case Healthy:
			healthyLogs++
		case Stalled, Distrusted:
			downLogs++
		}
	}
	// The fleet itself never reads "distrusted" — distrust is a per-log
	// verdict. A distrusted log degrades the fleet (and counts against
	// quorum) exactly like a stalled one.
	fs := Healthy
	switch {
	case healthyLogs == len(c.workers):
		fs = Healthy
	case len(c.workers)-downLogs >= c.cfg.quorum():
		fs = Degraded
	default:
		fs = Stalled
	}
	if prev := State(c.fleetState.Swap(int32(fs))); prev != fs {
		c.transitions[fs].Inc()
		c.ring.Record("fleet-state", "", int64(prev), int64(fs))
		c.cfg.Journal.Emit(nil, "fleet.state", map[string]any{
			"from": prev.String(), "to": fs.String(),
			"healthy": healthyLogs, "total": len(c.workers),
		})
		// A fleet-level health change is a capture-the-context moment:
		// the rings hold what every subsystem was doing when it flipped.
		_, _ = c.cfg.Flight.Trigger("fleet-state")
	}
	c.stateGauge.Set(float64(fs))
}
