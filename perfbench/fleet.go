package main

// The fleet substrate of fleet_backfill: two
// in-process CT logs ("alpha", "bravo") behind loopback ctlog.Server
// front ends, standing in for real logs, plus the benchmark's own
// HandleSourced consumer that indexes each unique entry the way
// ctmonitor does (lenient parse → index.FromCert → LSM.Put).
//
// Substrate cost (corpus generation, SCT signing on append, the log
// servers) is reported apart from the system under test: the server
// middleware below times every handler call, and the appends are
// timed where they are made.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corpus"
	"repro/internal/ctlog"
	"repro/internal/fleet"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/x509cert"
)

var logNames = []string{"alpha", "bravo"}

// spanHeader links a client round trip to the server handler span.
const spanHeader = "X-Perfbench-Span"

// fleetBatch is the get-entries window, ctmonitor's -batch default.
const fleetBatch = 64

var endpoints = []string{"get-sth", "get-entries", "get-sth-consistency", "get-proof-by-hash"}

func endpointName(path string) string {
	return path[strings.LastIndexByte(path, '/')+1:]
}

// generateDERs builds the first size certificates of the seeded corpus
// and keeps only their DER bytes, streaming slots back to the
// generator's pools so the parsed certificates are never all live.
func generateDERs(size int, seed int64) ([][]byte, error) {
	cfg := corpus.DefaultConfig()
	cfg.Size, cfg.Seed, cfg.PrecertFraction = size, seed, 0
	g, err := corpus.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, 0, size)
	for i := 0; len(out) < size && i < g.Slots(); i++ {
		s, err := g.GenerateSlot(i)
		if err != nil {
			return nil, err
		}
		for _, e := range s.Entries {
			if len(out) < size {
				out = append(out, append([]byte(nil), e.DER...))
			}
		}
		corpus.ReleaseSlot(s)
	}
	return out, nil
}

// fleetEnv is one stood-up substrate.
type fleetEnv struct {
	ders      [][]byte
	ids       map[ctlog.Hash]int32 // leaf hash → certificate id (index into ders)
	logs      []*ctlog.Log
	srvs      []*serve.Server
	done      []chan error
	bases     []string
	http      *http.Client // every log client's, through clientTransport
	transport *http.Transport
	reg       *obs.Registry
	active    atomic.Pointer[tracer] // non-nil while a traced pass runs

	generateS, appendS float64

	srvBytes atomic.Int64 // get-entries response bytes while traced
}

// newFleetEnv generates size certificates and fills each log with its
// half-stride-overlapping window of them (the ctmonitor fleet layout).
func newFleetEnv(size int, seed int64) (*fleetEnv, error) {
	e := &fleetEnv{reg: obs.NewRegistry()}
	t0 := time.Now()
	ders, err := generateDERs(size, seed)
	if err != nil {
		return nil, err
	}
	e.ders = ders
	e.ids = make(map[ctlog.Hash]int32, len(ders))
	for i, d := range ders {
		e.ids[ctlog.LeafHash(d)] = int32(i)
	}
	e.generateS = time.Since(t0).Seconds()

	t0 = time.Now()
	for i := range logNames {
		l, err := ctlog.NewLog(2025 + int64(i))
		if err != nil {
			return nil, err
		}
		lo, hi := window(i, len(logNames), size)
		for _, d := range ders[lo:hi] {
			if _, err := l.AddParsed(d, false); err != nil {
				return nil, err
			}
		}
		e.logs = append(e.logs, l)
	}
	e.appendS = time.Since(t0).Seconds()

	e.transport = &http.Transport{MaxIdleConnsPerHost: 8}
	e.http = &http.Client{Transport: &clientTransport{env: e, base: e.transport}}
	for i, l := range e.logs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, err
		}
		h := (&ctlog.Server{Log: l, Obs: e.reg, Name: "ctlog-" + logNames[i]}).Handler()
		srv := serve.New(e.serverMiddleware(h), serve.Config{Name: "ctlog-" + logNames[i]})
		done := make(chan error, 1)
		go func() { done <- srv.Run(context.Background(), ln) }()
		e.srvs = append(e.srvs, srv)
		e.done = append(e.done, done)
		e.bases = append(e.bases, "http://"+ln.Addr().String())
	}
	return e, nil
}

// window is log i's half-stride-overlapping slice of [0, total), as
// ctmonitor lays out its fleet logs.
func window(i, n, total int) (lo, hi int) {
	stride := total / n
	lo = max(i*stride-stride/2, 0)
	hi = (i+1)*stride + stride/2
	if i == n-1 || hi > total {
		hi = total
	}
	return lo, hi
}

func (e *fleetEnv) close() {
	if e == nil {
		return
	}
	for i, s := range e.srvs {
		s.Shutdown(context.Background())
		<-e.done[i]
	}
	e.srvs = nil
	if e.transport != nil {
		e.transport.CloseIdleConnections()
	}
}

// serverMiddleware times each log handler call (substrate cost) and
// links it to the client round trip that caused it.
func (e *fleetEnv) serverMiddleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := e.active.Load()
		if tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		id, t0 := tr.begin()
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		ep := endpointName(r.URL.Path)
		tr.end(id, parent, "ctlog.server."+ep, t0)
		if ep == "get-entries" {
			e.srvBytes.Add(cw.n)
		}
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// clientTransport times each round trip, headers through body close,
// as a span under the program's ctlog.<endpoint> request span.
type clientTransport struct {
	env  *fleetEnv
	base http.RoundTripper
}

func (t *clientTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := t.env.active.Load()
	if tr == nil {
		return t.base.RoundTrip(req)
	}
	id, t0 := tr.begin()
	var parent uint64
	if p := obs.SpanFromContext(req.Context()).ID(); p != 0 {
		parent = p | obsIDBit
	}
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	name := "ctlog.client." + endpointName(req.URL.Path) + ".rtt"
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		tr.end(id, parent, name, t0)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { tr.end(id, parent, name, t0) }}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// journalCounter is the io.Writer behind a traced pass's obs.Journal;
// it counts checkpoint.persist events and discards the rest.
type journalCounter struct{ persists atomic.Int64 }

func (j *journalCounter) Write(p []byte) (int, error) {
	j.persists.Add(int64(bytes.Count(p, []byte(`"checkpoint.persist"`))))
	return len(p), nil
}

// certState is per-certificate ingest bookkeeping.
type certState struct {
	queryable []int64  // first Put return, ns since the run's epoch (0 = never)
	records   []int32  // Put calls that indexed this certificate
	domain    []string // first record's domain, for point queries
}

func newCertState(n int) *certState {
	return &certState{
		queryable: make([]int64, n), records: make([]int32, n),
		domain: make([]string, n),
	}
}

// consumer is the benchmark's HandleSourced: it indexes each unique
// entry into the LSM as ctmonitor does, timing every layer call.
type consumer struct {
	env      *fleetEnv
	ix       *index.LSM
	flushCtr *obs.Counter
	state    *certState
	epoch    time.Time

	parseErrors, putErrors, unknown int
}

func (c *consumer) handle(src string, e ctlog.Entry) {
	tr := c.env.active.Load()
	cid, c0 := tr.begin()
	defer func() { tr.end(cid, 0, "fleet.consumer", c0) }()
	h := ctlog.LeafHash(e.DER)
	pid, p0 := tr.begin()
	cert, err := x509cert.ParseWithMode(e.DER, x509cert.ParseLenient)
	tr.end(pid, cid, "x509cert.parse", p0)
	if err != nil {
		c.parseErrors++
		return
	}
	fid, f0 := tr.begin()
	recs := index.FromCert(src, uint64(e.Index), h, cert)
	tr.end(fid, cid, "index.fromcert", f0)
	for _, rec := range recs {
		var flushes uint64
		if tr != nil {
			flushes = c.flushCtr.Value()
		}
		uid, u0 := tr.begin()
		err := c.ix.Put(rec)
		tr.end(uid, cid, "index.put", u0)
		if tr != nil && c.flushCtr.Value() != flushes {
			// Put flushed the full memtable synchronously.
			fid, _ := tr.begin()
			tr.end(fid, uid, "index.flush", u0)
		}
		if err != nil {
			c.putErrors++
			return
		}
	}
	id, ok := c.env.ids[h]
	if !ok {
		c.unknown++
		return
	}
	c.state.records[id] += int32(len(recs))
	if c.state.queryable[id] == 0 {
		c.state.queryable[id] = int64(time.Since(c.epoch))
		c.state.domain[id] = recs[0].Domain
	}
}

// passDirs are one fleet's durable state directories.
type passDirs struct{ ckpt, sth, index string }

func makeDirs(root string) (passDirs, error) {
	d := passDirs{filepath.Join(root, "ckpt"), filepath.Join(root, "sth"), filepath.Join(root, "index")}
	for _, p := range []string{d.ckpt, d.sth, d.index} {
		if err := os.MkdirAll(p, 0o755); err != nil {
			return d, err
		}
	}
	return d, nil
}

// passTrace is what one traced pass hands the program: an obs tracer
// for its own spans and a journal that counts checkpoint persists.
type passTrace struct {
	obs     *obs.Tracer
	journal *obs.Journal
	jc      *journalCounter
}

func newPassTrace() *passTrace {
	jc := &journalCounter{}
	return &passTrace{obs: obs.NewTracer(obsRing), journal: obs.NewJournal(jc, nil), jc: jc}
}

// runFleet performs one audited, checkpointed fleet.Coordinator.Run.
// pt is nil on untraced passes.
func (e *fleetEnv) runFleet(ctx context.Context, dirs passDirs, c *consumer, pt *passTrace) (*fleet.Result, error) {
	cfg := fleet.Config{
		CheckpointDir: dirs.ckpt,
		Audit:         true,
		STHStoreDir:   dirs.sth,
		HandleSourced: c.handle,
		Obs:           e.reg,
	}
	var tracer *obs.Tracer
	if pt != nil {
		tracer, cfg.Tracer, cfg.Journal = pt.obs, pt.obs, pt.journal
	}
	for i, name := range logNames {
		cfg.Logs = append(cfg.Logs, fleet.LogSpec{
			Name:   name,
			Client: &ctlog.Client{Base: e.bases[i], HTTP: e.http, Obs: e.reg, Tracer: tracer},
			Batch:  fleetBatch,
		})
	}
	coord, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	return coord.Run(ctx)
}

// checkFleetResult validates the exactness invariants of one Run: every
// fetched entry audited, no proof failures, every log healthy.
func checkFleetResult(res *result, fr *fleet.Result) (fetched, audited, proofFailures, retries int) {
	for _, name := range logNames {
		lr := fr.Logs[name]
		if lr == nil {
			res.invalid("fleet result has no report for log %s", name)
			continue
		}
		fetched += lr.Stats.Fetched
		audited += lr.Stats.Audited
		proofFailures += lr.Stats.ProofFailures
		retries += lr.Stats.Retries
		if lr.Stats.Audited != lr.Stats.Fetched {
			res.invalid("log %s: audited %d != fetched %d", name, lr.Stats.Audited, lr.Stats.Fetched)
		}
		if lr.Err != "" {
			res.invalid("log %s: %s", name, lr.Err)
		}
	}
	if proofFailures != 0 {
		res.invalid("%d proof failures on honest logs", proofFailures)
	}
	if fr.Interrupted {
		res.invalid("fleet run interrupted")
	}
	return
}

// fleetLayers reports the crawl and index per-layer metrics from the
// analysed trace, normalised per round (k traced rounds).
func fleetLayers(res *result, st map[string]*layerStat, k float64) {
	get := func(name string) *layerStat {
		if s := st[name]; s != nil {
			return s
		}
		return &layerStat{}
	}
	for _, ep := range endpoints {
		srv := get("ctlog.server." + ep)
		m := strings.ReplaceAll(ep, "-", "_")
		res.setLayer("ctlog.server."+m+".calls", float64(srv.count)/k)
		res.setLayer("ctlog.server."+m+".busy_s", srv.busy/k)
		res.setLayer("ctlog.client."+m+".rtt_s", get("ctlog.client."+ep+".rtt").busy/k)
	}
	sync := get("monitor.sync")
	res.setLayer("monitor.sync_s", sync.busy/k)
	res.setLayer("monitor.self_s", sync.self/k)
	res.setLayer("x509cert.parse_busy_s", get("x509cert.parse").busy/k)
	res.setLayer("index.fromcert_busy_s", get("index.fromcert").busy/k)
	put := get("index.put")
	res.setLayer("index.put_busy_s", put.busy/k)
	res.setLayer("index.put_p99_us", 1e6*quantile(put.durs, 0.99))
	res.setLayer("index.flush_s", get("index.flush").busy/k)
}

func describeFleet(fr *fleet.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "unique=%d dup=%d state=%s", fr.UniqueEntries, fr.DupEntries, fr.FinalState)
	for _, n := range logNames {
		if lr := fr.Logs[n]; lr != nil {
			fmt.Fprintf(&b, " %s[fetched=%d audited=%d]", n, lr.Stats.Fetched, lr.Stats.Audited)
		}
	}
	return b.String()
}

// queryAPI is the index's /ct/v1/query endpoint mounted as ctmonitor
// mounts it — index.Handler behind a shedding serve.Limiter inside a
// serve.Server — with handler-side timing, and one client connection.
type queryAPI struct {
	srv    *serve.Server
	done   chan error
	client *http.Client
	base   string
	shed   atomic.Int64
	mu     sync.Mutex
	busy   []float64 // handler seconds per query
}

func startQueryAPI(ix *index.LSM, reg *obs.Registry) (*queryAPI, error) {
	a := &queryAPI{done: make(chan error, 1)}
	h := index.Handler(ix, reg, nil)
	timed := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0).Seconds()
		a.mu.Lock()
		a.busy = append(a.busy, d)
		a.mu.Unlock()
	})
	lim := &serve.Limiter{Name: "query", OnShed: func(string) { a.shed.Add(1) }}
	a.srv = serve.New(lim.Wrap(timed), serve.Config{Name: "query"})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() { a.done <- a.srv.Run(context.Background(), ln) }()
	a.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	a.base = "http://" + ln.Addr().String() + "/ct/v1/query?"
	return a, nil
}

func (a *queryAPI) close() {
	a.srv.Shutdown(context.Background())
	<-a.done
	a.client.Transport.(*http.Transport).CloseIdleConnections()
}

// report sets the query layer's per-layer metrics.
func (a *queryAPI) report(res *result) {
	a.mu.Lock()
	defer a.mu.Unlock()
	res.setLayer("index.query_busy_p99_us", 1e6*quantile(a.busy, 0.99))
	res.setLayer("serve.query_shed", float64(a.shed.Load()))
}

// queryResponse is the part of /ct/v1/query's answer the check reads.
type queryResponse struct {
	Results []struct {
		LeafHash string `json:"leaf_hash"`
	} `json:"results"`
}

// query point-queries domain over the API and reports whether the
// answer holds the certificate der (read-your-writes).
func (a *queryAPI) query(der []byte, domain string) bool {
	h := ctlog.LeafHash(der)
	want := fmt.Sprintf("%x", h[:])
	v := url.Values{}
	v.Set("domain", domain)
	v.Set("limit", "1000")
	resp, err := a.client.Get(a.base + v.Encode())
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var r queryResponse
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&r) != nil {
		return false
	}
	for _, x := range r.Results {
		if x.LeafHash == want {
			return true
		}
	}
	return false
}
