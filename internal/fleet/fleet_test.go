package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/big"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ctlog"
	"repro/internal/faultinject"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/x509cert"
)

var (
	caKey, _   = x509cert.GenerateKey(41)
	leafKey, _ = x509cert.GenerateKey(42)
)

// leafDER builds a distinct parseable certificate per name.
func leafDER(t testing.TB, cn string) []byte {
	t.Helper()
	tpl := &x509cert.Template{
		SerialNumber: big.NewInt(77),
		Issuer:       x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDCommonName, "Fleet CA")),
		Subject:      x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDCommonName, cn)),
		NotBefore:    time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:     time.Date(2025, 4, 1, 0, 0, 0, 0, time.UTC),
		SAN:          []x509cert.GeneralName{x509cert.DNSName(cn)},
	}
	der, err := x509cert.Build(tpl, caKey, leafKey)
	if err != nil {
		t.Fatal(err)
	}
	return der
}

// ders builds n distinct leaves named <prefix>-<i>.example.
func ders(t testing.TB, prefix string, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = leafDER(t, fmt.Sprintf("%s-%d.example", prefix, i))
	}
	return out
}

// serveLog stands up an in-process CT log holding the given leaves and
// returns its base URL.
func serveLog(t testing.TB, seed int64, leaves [][]byte) string {
	t.Helper()
	log, err := ctlog.NewLog(seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, der := range leaves {
		if _, err := log.AddParsed(der, false); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer((&ctlog.Server{Log: log}).Handler())
	t.Cleanup(srv.Close)
	return srv.URL
}

// fastClient builds a per-log client with its own breaker and no real
// backoff sleeps.
func fastClient(base string, transport http.RoundTripper) *ctlog.Client {
	return &ctlog.Client{
		Base:       base,
		HTTP:       &http.Client{Transport: transport},
		MaxRetries: 4,
		Timeout:    2 * time.Second,
		Breaker:    &ctlog.Breaker{Threshold: 3, Cooldown: 10 * time.Millisecond},
		Sleep:      func(context.Context, time.Duration) error { return nil },
	}
}

func noSleep(context.Context, time.Duration) error { return nil }

// TestFleetDedupExactness: two logs share a third of their entries;
// every certificate reaches the consumer exactly once and the dedup
// accounting is exact: unique + deduped == total fetched.
func TestFleetDedupExactness(t *testing.T) {
	shared := ders(t, "shared", 10)
	onlyA := ders(t, "a", 10)
	onlyB := ders(t, "b", 10)
	logA := append(append([][]byte{}, onlyA...), shared...)
	logB := append(append([][]byte{}, onlyB...), shared...)

	var mu sync.Mutex
	delivered := map[ctlog.Hash]int{}
	reg := obs.NewRegistry()
	c, err := New(Config{
		Logs: []LogSpec{
			{Name: "alpha", Client: fastClient(serveLog(t, 101, logA), nil), Batch: 4},
			{Name: "bravo", Client: fastClient(serveLog(t, 102, logB), nil), Batch: 4},
		},
		Obs:   reg,
		Sleep: noSleep,
		Handle: func(e ctlog.Entry) {
			mu.Lock()
			delivered[ctlog.LeafHash(e.DER)]++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.UniqueEntries != 30 || res.DupEntries != 10 {
		t.Fatalf("unique=%d dup=%d, want 30/10", res.UniqueEntries, res.DupEntries)
	}
	totalFetched := res.Logs["alpha"].Stats.Fetched + res.Logs["bravo"].Stats.Fetched
	if res.UniqueEntries+res.DupEntries != totalFetched {
		t.Fatalf("unique(%d)+dup(%d) != fetched(%d)", res.UniqueEntries, res.DupEntries, totalFetched)
	}
	for name, rep := range res.Logs {
		if rep.Stats.Forwarded+rep.Stats.Deduped != rep.Stats.Fetched {
			t.Fatalf("%s: forwarded(%d)+deduped(%d) != fetched(%d)", name, rep.Stats.Forwarded, rep.Stats.Deduped, rep.Stats.Fetched)
		}
	}
	if len(delivered) != 30 {
		t.Fatalf("consumer saw %d distinct certs, want 30", len(delivered))
	}
	for h, n := range delivered {
		if n != 1 {
			t.Fatalf("cert %x delivered %d times", h[:4], n)
		}
	}
	if res.FinalState != "healthy" {
		t.Fatalf("final state %q", res.FinalState)
	}
	if got := reg.Counter("fleet_entries_unique_total").Value(); got != 30 {
		t.Fatalf("fleet_entries_unique_total = %d", got)
	}
	if got := reg.Counter("fleet_entries_deduped_total").Value(); got != 10 {
		t.Fatalf("fleet_entries_deduped_total = %d", got)
	}
}

// TestFleetFaultIsolation is the core failure-domain scenario: four
// logs with disjoint fault profiles — one that hangs, one 25% flaky,
// one with poisoned entries, one clean — crawled together. Every
// log's damage stays its own: the clean log fetches everything, the
// poisoned log bisects and skips exactly its poisoned entries, and
// the fleet completes with exact dedup accounting.
func TestFleetFaultIsolation(t *testing.T) {
	const perLog = 60
	poisoned := map[int]bool{7: true, 23: true}
	mk := func(name string, seed int64, transport func() http.RoundTripper) LogSpec {
		var rt http.RoundTripper
		if transport != nil {
			rt = transport()
		}
		return LogSpec{Name: name, Client: fastClient(serveLog(t, seed, ders(t, name, perLog)), rt), Batch: 8}
	}
	specs := []LogSpec{
		mk("hangy", 201, func() http.RoundTripper {
			return faultinject.New(faultinject.Config{
				Seed: 1, Rate: 0.2, Kinds: []faultinject.Kind{faultinject.Hang},
				HangFor: 50 * time.Millisecond, MaxConsecutive: 2,
			}, nil)
		}),
		mk("flaky", 202, func() http.RoundTripper {
			return faultinject.New(faultinject.Config{
				Seed: 2, Rate: 0.25, Kinds: []faultinject.Kind{faultinject.ServerError},
				MaxConsecutive: 2,
			}, nil)
		}),
		mk("poisoned", 203, func() http.RoundTripper {
			return faultinject.New(faultinject.Config{Seed: 3, PoisonEntries: poisoned}, nil)
		}),
		mk("clean", 204, nil),
	}
	// The hangy log needs a client timeout shorter than the crawl's
	// patience so hangs fail fast.
	specs[0].Client.Timeout = 200 * time.Millisecond

	c, err := New(Config{Logs: specs, Obs: obs.NewRegistry(), Sleep: noSleep, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"hangy", "flaky", "clean"} {
		rep := res.Logs[name]
		if rep.Stats.Fetched != perLog {
			t.Fatalf("%s fetched %d, want %d (err=%q)", name, rep.Stats.Fetched, perLog, rep.Err)
		}
		if rep.State != "healthy" {
			t.Fatalf("%s final state %q", name, rep.State)
		}
	}
	p := res.Logs["poisoned"]
	if p.Stats.SkippedEntries != len(poisoned) {
		t.Fatalf("poisoned log skipped %d, want %d", p.Stats.SkippedEntries, len(poisoned))
	}
	if p.Stats.Fetched != perLog-len(poisoned) {
		t.Fatalf("poisoned log fetched %d, want %d", p.Stats.Fetched, perLog-len(poisoned))
	}
	if p.State != "healthy" {
		t.Fatalf("poisoned log state %q: bisection skips are progress, not failure", p.State)
	}
	wantUnique := 4*perLog - len(poisoned)
	if res.UniqueEntries != wantUnique || res.DupEntries != 0 {
		t.Fatalf("unique=%d dup=%d, want %d/0", res.UniqueEntries, res.DupEntries, wantUnique)
	}
	if res.FinalState != "healthy" {
		t.Fatalf("fleet final state %q", res.FinalState)
	}
}

// TestFleetQuorumAndStalledLog: a log whose origin only ever fails
// exhausts its restart budget and stalls; the rest of the fleet keeps
// crawling to completion (degraded-not-dead), and the quorum rule
// decides readiness.
func TestFleetQuorumAndStalledLog(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "permanently down", http.StatusServiceUnavailable)
	}))
	defer dead.Close()

	run := func(quorum int) (*Coordinator, *Result) {
		deadClient := fastClient(dead.URL, nil)
		deadClient.MaxRetries = 1
		c, err := New(Config{
			Logs: []LogSpec{
				{Name: "good1", Client: fastClient(serveLog(t, 301, ders(t, "g1", 20)), nil), Batch: 8},
				{Name: "good2", Client: fastClient(serveLog(t, 302, ders(t, "g2", 20)), nil), Batch: 8},
				{Name: "bad", Client: deadClient, Batch: 8},
			},
			Quorum:      quorum,
			MaxRestarts: 2,
			Sleep:       noSleep,
			Obs:         obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return c, res
	}

	// Quorum 2 of 3: one stalled log degrades the fleet but leaves it
	// ready.
	c, res := run(2)
	if res.Logs["bad"].State != "stalled" || res.Logs["bad"].Err == "" {
		t.Fatalf("bad log report: %+v", res.Logs["bad"])
	}
	for _, name := range []string{"good1", "good2"} {
		if res.Logs[name].Stats.Fetched != 20 || res.Logs[name].State != "healthy" {
			t.Fatalf("%s: %+v (a dead sibling must not starve it)", name, res.Logs[name])
		}
	}
	if res.FinalState != "degraded" {
		t.Fatalf("fleet state %q, want degraded", res.FinalState)
	}
	if err := c.Ready(); err != nil {
		t.Fatalf("quorum 2/3 met but Ready() = %v", err)
	}
	if c.LogState("bad") != Stalled {
		t.Fatalf("LogState(bad) = %v", c.LogState("bad"))
	}

	// Quorum 3 of 3: the same outcome now fails readiness and the
	// fleet is stalled.
	c, res = run(3)
	if res.FinalState != "stalled" {
		t.Fatalf("fleet state %q, want stalled under quorum 3", res.FinalState)
	}
	err := c.Ready()
	if err == nil {
		t.Fatal("Ready() nil with quorum unmet")
	}
	if want := "down: bad"; !strings.Contains(err.Error(), want) {
		t.Fatalf("Ready() = %q, want mention of %q", err, want)
	}
}

// TestFleetCheckpointResume kills a fleet run mid-crawl (context
// cancellation, the SIGTERM path) and restarts it with a fresh
// coordinator over the same checkpoint directory: each log resumes
// from its own persisted checkpoint and no entry is refetched or
// lost.
func TestFleetCheckpointResume(t *testing.T) {
	const perLog = 40
	dir := t.TempDir()
	build := func(handle func(ctlog.Entry)) *Coordinator {
		c, err := New(Config{
			Logs: []LogSpec{
				{Name: "alpha", Client: fastClient(serveLog(t, 401, ders(t, "ra", perLog)), nil), Batch: 4},
				{Name: "bravo", Client: fastClient(serveLog(t, 402, ders(t, "rb", perLog)), nil), Batch: 4},
			},
			CheckpointDir: dir,
			Sleep:         noSleep,
			Handle:        handle,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	// Run 1: cancel after a handful of deliveries — both crawls are
	// mid-flight.
	ctx, cancel := context.WithCancel(context.Background())
	var n int
	var mu sync.Mutex
	c1 := build(func(ctlog.Entry) {
		mu.Lock()
		n++
		if n == 10 {
			cancel()
		}
		mu.Unlock()
	})
	res1, err := c1.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !res1.Interrupted {
		t.Fatal("run 1 not marked interrupted")
	}
	f1a, f1b := res1.Logs["alpha"].Stats.Fetched, res1.Logs["bravo"].Stats.Fetched
	if f1a >= perLog && f1b >= perLog {
		t.Skip("both crawls finished before the cancel landed; nothing to resume")
	}

	// Run 2: a fresh coordinator (fresh monitors, fresh dedup set)
	// resumes from the persisted checkpoints and finishes the job.
	c2 := build(nil)
	res2, err := c2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Interrupted {
		t.Fatal("run 2 marked interrupted")
	}
	for _, name := range []string{"alpha", "bravo"} {
		r1, r2 := res1.Logs[name], res2.Logs[name]
		if got := r1.Stats.Fetched + r2.Stats.Fetched; got != perLog {
			t.Fatalf("%s: fetched %d+%d = %d across runs, want exactly %d (zero refetch, zero loss)",
				name, r1.Stats.Fetched, r2.Stats.Fetched, got, perLog)
		}
		if r1.Stats.Fetched > 0 && r2.Stats.ResumedFrom == 0 && r2.Stats.Fetched > 0 {
			t.Fatalf("%s: run 2 started from 0 despite run 1 fetching %d", name, r1.Stats.Fetched)
		}
		if r2.Stats.ResumedFrom != r1.Stats.Fetched {
			t.Fatalf("%s: run 2 resumed from %d, want %d", name, r2.Stats.ResumedFrom, r1.Stats.Fetched)
		}
	}
	if got := res1.UniqueEntries + res2.UniqueEntries; got != 2*perLog {
		t.Fatalf("unique across runs = %d, want %d (disjoint logs, no dups)", got, 2*perLog)
	}
}

// TestFleetCheckpointLockCollision: a fleet whose checkpoint path is
// already held — by another process or a misconfigured sibling — must
// refuse to start rather than corrupt the other holder's resume state.
func TestFleetCheckpointLockCollision(t *testing.T) {
	dir := t.TempDir()
	holder, err := monitor.AcquireFileCheckpointStore(filepath.Join(dir, "alpha.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	c, err := New(Config{
		Logs:          []LogSpec{{Name: "alpha", Client: fastClient(serveLog(t, 501, ders(t, "lc", 3)), nil)}},
		CheckpointDir: dir,
		Sleep:         noSleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); !errors.Is(err, monitor.ErrCheckpointLocked) {
		t.Fatalf("Run with held lock: err = %v, want ErrCheckpointLocked", err)
	}
}

// TestFleetBackpressure: a slow consumer must throttle the crawls via
// the bounded feed instead of letting them buffer unboundedly — the
// feed's stall counter proves the producers actually blocked.
func TestFleetBackpressure(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := New(Config{
		Logs:       []LogSpec{{Name: "alpha", Client: fastClient(serveLog(t, 601, ders(t, "bp", 50)), nil), Batch: 16}},
		QueueDepth: 1,
		Obs:        reg,
		Sleep:      noSleep,
		Handle:     func(ctlog.Entry) { time.Sleep(200 * time.Microsecond) },
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.UniqueEntries != 50 {
		t.Fatalf("unique = %d", res.UniqueEntries)
	}
	if got := reg.Counter("fleet_feed_put_stalls_total").Value(); got == 0 {
		t.Fatal("no backpressure stalls recorded against a depth-1 feed and a slow consumer")
	}
}

// TestFleetConfigValidation covers New's fail-fast paths.
func TestFleetConfigValidation(t *testing.T) {
	client := &ctlog.Client{Base: "http://unused"}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no logs", Config{}},
		{"empty name", Config{Logs: []LogSpec{{Client: client}}}},
		{"dup name", Config{Logs: []LogSpec{{Name: "a", Client: client}, {Name: "a", Client: client}}}},
		{"nil client", Config{Logs: []LogSpec{{Name: "a"}}}},
		{"quorum too big", Config{Logs: []LogSpec{{Name: "a", Client: client}}, Quorum: 2}},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: New accepted invalid config", tc.name)
		}
	}
}

// TestFleetStallAfter: a log whose checkpoint stops advancing (its
// origin hangs forever mid-crawl) goes stalled by age while a healthy
// sibling finishes, and the coordinator still returns once the stuck
// log exhausts its budget.
func TestFleetStallAfter(t *testing.T) {
	// An origin that serves the STH, then hangs every get-entries until
	// the client gives up.
	inner := httptest.NewServer((&ctlog.Server{Log: mustLog(t, 701, ders(t, "st", 30))}).Handler())
	defer inner.Close()
	hang := faultinject.New(faultinject.Config{
		Seed: 9, Rate: 1.0, Kinds: []faultinject.Kind{faultinject.Hang},
		HangFor: 100 * time.Millisecond, MaxConsecutive: 1 << 30,
	}, nil)
	stuck := fastClient(inner.URL, hang)
	stuck.Timeout = 30 * time.Millisecond
	stuck.MaxRetries = 1

	c, err := New(Config{
		Logs: []LogSpec{
			{Name: "stuck", Client: stuck, Batch: 8},
			{Name: "fine", Client: fastClient(serveLog(t, 702, ders(t, "sf", 30)), nil), Batch: 8},
		},
		Quorum:      1,
		MaxRestarts: 2,
		StallAfter:  10 * time.Millisecond,
		HealthEvery: 5 * time.Millisecond,
		Sleep:       noSleep,
		Obs:         obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Logs["fine"].Stats.Fetched != 30 {
		t.Fatalf("fine log fetched %d", res.Logs["fine"].Stats.Fetched)
	}
	if res.Logs["stuck"].State != "stalled" {
		t.Fatalf("stuck log state %q", res.Logs["stuck"].State)
	}
	if res.FinalState != "degraded" {
		t.Fatalf("fleet state %q, want degraded (quorum 1 still met)", res.FinalState)
	}
}

func mustLog(t testing.TB, seed int64, leaves [][]byte) *ctlog.Log {
	t.Helper()
	log, err := ctlog.NewLog(seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, der := range leaves {
		if _, err := log.AddParsed(der, false); err != nil {
			t.Fatal(err)
		}
	}
	return log
}

// TestFleetDistrustsEquivocatingLog is the split-view incident
// end-to-end: an audited fleet crawls two honest logs and one that
// serves forked tree heads. The lying log must land in the distrusted
// state — terminal, no restart burn — with the incident journaled and
// flight-dumped, while its siblings complete verified crawls and the
// dedup accounting stays exact.
func TestFleetDistrustsEquivocatingLog(t *testing.T) {
	const perLog = 30
	shared := ders(t, "fshared", 10)
	logA := append(ders(t, "fa", perLog-10), shared...)
	logB := append(ders(t, "fb", perLog-10), shared...)
	logC := ders(t, "fc", perLog)

	// charlie answers every get-sth with a flipped root hash: a forked
	// view of its own tree.
	injector := faultinject.New(faultinject.Config{
		Seed:  37,
		Rate:  1.0,
		Kinds: []faultinject.Kind{faultinject.SthEquivocate},
	}, nil)

	var mu sync.Mutex
	delivered := map[ctlog.Hash]int{}
	var journal strings.Builder
	flightDir := t.TempDir()
	reg := obs.NewRegistry()
	c, err := New(Config{
		Logs: []LogSpec{
			{Name: "alpha", Client: fastClient(serveLog(t, 501, logA), nil), Batch: 8},
			{Name: "bravo", Client: fastClient(serveLog(t, 502, logB), nil), Batch: 8},
			{Name: "charlie", Client: fastClient(serveLog(t, 503, logC), injector), Batch: 8},
		},
		Quorum:      2,
		Audit:       true,
		STHStoreDir: t.TempDir(),
		MaxRestarts: 3,
		Sleep:       noSleep,
		Obs:         reg,
		Journal:     obs.NewJournal(&journal, nil),
		Flight:      obs.NewFlight(flightDir, 64, nil),
		Handle: func(e ctlog.Entry) {
			mu.Lock()
			delivered[ctlog.LeafHash(e.DER)]++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// The lying log is distrusted, not stalled, and burned no restarts.
	rep := res.Logs["charlie"]
	if rep.State != "distrusted" {
		t.Fatalf("charlie state %q, want distrusted: %+v", rep.State, rep)
	}
	if !strings.Contains(rep.Err, "proof") {
		t.Fatalf("charlie error %q does not name the proof failure", rep.Err)
	}
	if rep.Restarts != 0 {
		t.Fatalf("charlie burned %d restarts on a terminal proof failure", rep.Restarts)
	}
	if rep.Stats.ProofFailures == 0 || rep.Stats.Audited != rep.Stats.Fetched {
		t.Fatalf("charlie stats: %+v", rep.Stats)
	}
	if c.LogState("charlie") != Distrusted {
		t.Fatalf("LogState(charlie) = %v", c.LogState("charlie"))
	}
	if got := c.ProofFailures(); got != rep.Stats.ProofFailures {
		t.Fatalf("Coordinator.ProofFailures() = %d, report says %d", got, rep.Stats.ProofFailures)
	}

	// Siblings completed full verified crawls; distrust is contained.
	for _, name := range []string{"alpha", "bravo"} {
		rep := res.Logs[name]
		if rep.State != "healthy" || rep.Stats.Fetched != perLog || rep.Stats.Audited != perLog || rep.Stats.ProofFailures != 0 {
			t.Fatalf("%s: %+v (a lying sibling must not affect it)", name, rep)
		}
	}
	// Dedup stays exact across the surviving logs: the shared ten
	// arrive once, everything delivered exactly once.
	if res.UniqueEntries+res.DupEntries != res.Logs["alpha"].Stats.Fetched+res.Logs["bravo"].Stats.Fetched+rep.Stats.Fetched {
		t.Fatalf("dedup accounting broken: %+v", res)
	}
	mu.Lock()
	for h, n := range delivered {
		if n != 1 {
			t.Fatalf("cert %x delivered %d times", h[:4], n)
		}
	}
	mu.Unlock()

	// Quorum 2/3 holds: the fleet degrades but stays ready.
	if res.FinalState != "degraded" {
		t.Fatalf("fleet state %q, want degraded", res.FinalState)
	}
	if err := c.Ready(); err != nil {
		t.Fatalf("quorum met but Ready() = %v", err)
	}
	if got := reg.Gauge("fleet_log_state", "log", "charlie").Value(); got != float64(Distrusted) {
		t.Fatalf("fleet_log_state{charlie} = %v, want %d", got, Distrusted)
	}

	// The incident trail exists: a distrusted state transition and a
	// proof-failure event in the journal, and a flight dump on disk.
	events, err := obs.ReadJournal(strings.NewReader(journal.String()))
	if err != nil {
		t.Fatal(err)
	}
	var sawTransition, sawIncident bool
	for _, ev := range events {
		switch ev.Type {
		case "fleet.log_state":
			if to, _ := ev.Attrs["to"].(string); to == "distrusted" {
				if name, _ := ev.Attrs["log"].(string); name != "charlie" {
					t.Fatalf("distrusted transition names %q", name)
				}
				sawTransition = true
			}
		case "monitor.proof_failure":
			if name, _ := ev.Attrs["log"].(string); name == "charlie" {
				sawIncident = true
			}
		}
	}
	if !sawTransition || !sawIncident {
		t.Fatalf("journal missing the incident trail: transition=%v incident=%v", sawTransition, sawIncident)
	}
	dumps, err := filepath.Glob(filepath.Join(flightDir, "flight-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) == 0 {
		t.Fatal("distrust left no flight-recorder dump")
	}
}

// TestFleetQuarantinesHandlerPanic: a handler that panics on one entry
// must not take down the consumer. The entry is quarantined in every
// sink — Result, counter, journal, flight dump — and still counts as
// handled, so the run finishes with the checkpoint at the log's end.
func TestFleetQuarantinesHandlerPanic(t *testing.T) {
	const perLog, k = 20, 7
	dir := t.TempDir()
	flightDir := t.TempDir()
	reg := obs.NewRegistry()
	journalPath := filepath.Join(t.TempDir(), "run.jsonl")
	journal, err := obs.OpenJournal(journalPath, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	handled := 0
	c, err := New(Config{
		Logs:          []LogSpec{{Name: "alpha", Client: fastClient(serveLog(t, 711, ders(t, "qp", perLog)), nil), Batch: 4}},
		CheckpointDir: dir,
		Obs:           reg,
		Journal:       journal,
		Flight:        obs.NewFlight(flightDir, 0, reg),
		Sleep:         noSleep,
		HandleSourced: func(log string, e ctlog.Entry) {
			if e.Index == k {
				panic("hostile certificate")
			}
			handled++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Quarantined != 1 || res.UniqueEntries != perLog || handled != perLog-1 {
		t.Fatalf("quarantined %d, unique %d, handled %d; want 1, %d, %d",
			res.Quarantined, res.UniqueEntries, handled, perLog, perLog-1)
	}
	if got, _ := reg.Sample("monitor_quarantined_entries_total"); got != 1 {
		t.Fatalf("monitor_quarantined_entries_total = %v, want 1", got)
	}
	if cp, ok := loadCheckpoint(t, dir, "alpha"); !ok || cp.NextIndex != perLog {
		t.Fatalf("final checkpoint %+v (ok %v), want next index %d", cp, ok, perLog)
	}
	data, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadJournal(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	quarantines := 0
	for _, ev := range events {
		if ev.Type == "monitor.quarantine" {
			quarantines++
			if ev.Attrs["log"] != "alpha" || ev.Attrs["index"] != float64(k) {
				t.Fatalf("monitor.quarantine attrs %v, want log alpha index %d", ev.Attrs, k)
			}
		}
	}
	if quarantines != 1 {
		t.Fatalf("%d monitor.quarantine events, want 1", quarantines)
	}
	if dumps, _ := filepath.Glob(filepath.Join(flightDir, "flight-*-quarantine.jsonl")); len(dumps) != 1 {
		t.Fatalf("quarantine flight dumps %v, want one", dumps)
	}
}
