package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ledger"
	"repro/internal/resultstore"
	"repro/internal/serve"
	"repro/internal/workload"
)

// serveWorkload drives an in-process job server, wired the way
// proteus-served wires it (result store, provenance ledger, batched
// admission), from closed-loop clients over loopback HTTP. Each client
// sends its next request only when the previous one completes.
type serveWorkload struct {
	benches                  []workload.Kind
	schemes                  []core.Scheme
	mems                     []string
	wseeds                   int // workload seeds per (bench, scheme, memory)
	threads, simOps, initOps int
	requests                 int     // per rep
	restartEvery             int     // requests between server restarts on the same store
	clients                  int     // concurrent closed-loop clients
	zipf                     float64 // skew of the tuple popularity
	workers                  int     // server and engine workers
}

// serveMixed draws a skewed stream over 144 small simulation tuples, so
// it mixes misses (simulate), memo hits (answered in memory) and store
// hits (answered from disk after a restart).
func serveMixed() serveWorkload {
	return serveWorkload{
		benches: workload.Table2, schemes: core.Schemes, mems: []string{"nvm-fast", "nvm-slow"},
		wseeds: 2, threads: 2, simOps: 32, initOps: 256,
		requests: 2000, restartEvery: 500, clients: 2, zipf: 1.2, workers: 2,
	}
}

// reqClass is how the server can answer a request, known from the stream:
// the first request for a tuple simulates it, a repeat before the next
// restart is a memo hit, and a repeat after one is a store hit.
type reqClass int

const (
	classMiss reqClass = iota
	classMemoHit
	classStoreHit
)

// stream returns the request bodies of the tuple universe and the seeded
// request sequence over it, as tuple indexes with their classes. The
// universe itself is fixed — workload seeds 1..wseeds — so whatever the
// seed every rep simulates the same tuples, and the seed changes only the
// order and mix of requests, the serving path this workload measures.
func (w serveWorkload) stream(seed int64) (bodies [][]byte, order []int, classes []reqClass, err error) {
	for _, b := range w.benches {
		for _, s := range w.schemes {
			for _, mem := range w.mems {
				for ws := int64(1); ws <= int64(w.wseeds); ws++ {
					body, err := json.Marshal(serve.Spec{Type: "sim", Bench: b.Abbrev(), Scheme: s.String(), Mem: mem,
						Threads: w.threads, SimOps: w.simOps, InitOps: w.initOps, Seed: ws})
					if err != nil {
						return nil, nil, nil, err
					}
					bodies = append(bodies, body)
				}
			}
		}
	}
	if w.requests < len(bodies) {
		return nil, nil, nil, fmt.Errorf("%d requests cannot cover %d tuples", w.requests, len(bodies))
	}
	// The stream opens with every tuple once, in catalog order, so each rep
	// simulates the same tuples in the same order: which simulations wait
	// for a shared workload build then does not depend on the seed. After
	// that, popularity follows a Zipf law over a seeded ranking.
	rng := rand.New(rand.NewSource(seed))
	rank := rng.Perm(len(bodies))
	z := rand.NewZipf(rng, w.zipf, 1, uint64(len(bodies)-1))
	for t := range bodies {
		order = append(order, t)
	}
	for len(order) < w.requests {
		order = append(order, rank[z.Uint64()])
	}
	ever := map[int]bool{}
	var epoch map[int]bool
	for i, t := range order {
		if i%w.restartEvery == 0 {
			epoch = map[int]bool{}
		}
		c := classStoreHit
		switch {
		case !ever[t]:
			c = classMiss
		case epoch[t]:
			c = classMemoHit
		}
		ever[t], epoch[t] = true, true
		classes = append(classes, c)
	}
	return bodies, order, classes, nil
}

// stackHooks instrument a server stack for the traced pass.
type stackHooks struct {
	storeFS, ledgerFS resultstore.FS
	wrap              func(engine.ResultStore) engine.ResultStore
	progress          func(engine.Event)
}

// serveStack is one server process's worth of state over a store dir.
type serveStack struct {
	store   *resultstore.Store
	batcher *ledger.Batcher
	srv     *serve.Server
	http    *httptest.Server
	client  *http.Client
}

func openStack(dir string, workers, clients int, h stackHooks) (*serveStack, error) {
	store, err := resultstore.OpenFS(dir, h.storeFS)
	if err != nil {
		return nil, err
	}
	lg, err := ledger.Open(ledger.DefaultPath(dir), h.ledgerFS)
	if err != nil {
		return nil, err
	}
	batcher := ledger.NewBatcher(lg, 64, 25*time.Millisecond)
	var es engine.ResultStore = ledger.NewRecordingStore(store, batcher)
	if h.wrap != nil {
		es = h.wrap(es)
	}
	store.SetVerifier(ledger.DigestVerifier(lg))
	eng := engine.New(engine.Config{Workers: workers, Store: es, Progress: h.progress})
	srv, err := serve.New(serve.Config{Engine: eng, Store: store, Workers: workers, Ledger: lg, Admissions: batcher})
	if err != nil {
		batcher.Close()
		return nil, err
	}
	srv.Start()
	return &serveStack{
		store: store, batcher: batcher, srv: srv,
		http:   httptest.NewServer(srv.Handler()),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}},
	}, nil
}

// close drains the server, stops the listener and seals the ledger's
// pending leaves, as a graceful shutdown does.
func (s *serveStack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.srv.Drain(ctx)
	s.client.CloseIdleConnections()
	s.http.Close()
	s.batcher.Close()
	return err
}

// response is what one request got back.
type response struct {
	status  int
	state   string
	result  json.RawMessage
	latency time.Duration
	err     error
}

// drive runs the closed-loop clients over reqs (tuple indexes).
func (s *serveStack) drive(ctx context.Context, bodies [][]byte, reqs []int, clients int, out []response, tr *tracer) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				out[i] = s.post(ctx, bodies[reqs[i]], tr)
			}
		}()
	}
	wg.Wait()
}

func (s *serveStack) post(ctx context.Context, body []byte, tr *tracer) response {
	sp := tr.begin(0, layerServe, spanRequest, false)
	start := time.Now()
	r := response{}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.http.URL+"/v1/jobs?wait=1", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		r.err = err
		return r
	}
	var st struct {
		State  string          `json:"state"`
		Result json.RawMessage `json:"result"`
	}
	r.status = resp.StatusCode
	r.err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	r.state, r.result = st.State, st.Result
	r.latency = time.Since(start)
	sp.end()
	return r
}

// counter reads one counter from the server's /metrics page.
func (s *serveStack) counter(name string) (float64, error) {
	resp, err := s.client.Get(s.http.URL + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no %s", name)
}

type serveRep struct {
	w       serveWorkload
	dir     string
	bodies  [][]byte
	order   []int
	classes []reqClass
	hooks   stackHooks
	tr      *tracer // traced pass only

	stack      *serveStack // open between epochs
	out        []response
	merged     float64
	rejected   float64
	start, end time.Time
}

func (w serveWorkload) newRep(env *env, hooks stackHooks, tr *tracer) (*serveRep, error) {
	if err := os.MkdirAll(env.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(env.workdir, "serve-store-")
	if err != nil {
		return nil, err
	}
	r := &serveRep{w: w, dir: dir, hooks: hooks, tr: tr}
	if r.bodies, r.order, r.classes, err = w.stream(env.seed); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if r.stack, err = openStack(dir, w.workers, w.clients, hooks); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	r.out = make([]response, len(r.order))
	return r, nil
}

func (w serveWorkload) setup(_ context.Context, env *env) (rep, error) {
	return w.newRep(env, stackHooks{}, nil)
}

// run sends the stream, restarting the server on the same store every
// restartEvery requests. Opening the first server is set-up; every later
// restart, and the final shutdown, is part of the rep.
func (r *serveRep) run(ctx context.Context) error {
	r.start = time.Now()
	defer func() { r.end = time.Now() }()
	for lo := 0; lo < len(r.order); lo += r.w.restartEvery {
		hi := min(lo+r.w.restartEvery, len(r.order))
		if r.stack == nil {
			st, err := openStack(r.dir, r.w.workers, r.w.clients, r.hooks)
			if err != nil {
				return err
			}
			r.stack = st
		}
		r.stack.drive(ctx, r.bodies, r.order[lo:hi], r.w.clients, r.out[lo:hi], r.tr)
		if r.tr != nil {
			for name, dst := range map[string]*float64{
				"proteus_serve_jobs_merged_total":   &r.merged,
				"proteus_serve_jobs_rejected_total": &r.rejected,
			} {
				v, err := r.stack.counter(name)
				if err != nil {
					return err
				}
				*dst += v
			}
		}
		err := r.stack.close()
		r.stack = nil
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// check verifies every response, that each tuple's result is the same
// bytes whether it was simulated, a memo hit or a store hit, and that the
// ledger audits clean against the store.
func (r *serveRep) check() outcome {
	o := outcome{ops: len(r.out)}
	fail := func(format string, args ...any) {
		o.failed++
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
	first := map[int]json.RawMessage{}
	for i, resp := range r.out {
		t := r.order[i]
		switch {
		case resp.err != nil:
			fail("request %d (tuple %d): %v", i, t, resp.err)
			continue
		case resp.status != http.StatusOK || resp.state != string(serve.StateDone):
			fail("request %d (tuple %d): status %d, state %q", i, t, resp.status, resp.state)
			continue
		}
		if prev, ok := first[t]; !ok {
			first[t] = resp.result
		} else if !bytes.Equal(prev, resp.result) {
			fail("request %d (tuple %d, %s): result differs from the tuple's first answer", i, t, r.classes[i])
		}
	}
	if rep, err := audit(r.dir, nil); err != nil {
		fail("ledger audit: %v", err)
	} else if err := rep.Err(false, true); err != nil {
		fail("%v", err)
	}
	for t := range r.bodies {
		o.output = append(o.output, first[t]...)
	}
	return o
}

// audit cross-checks the store in dir against its ledger.
func audit(dir string, tr *tracer) (ledger.AuditReport, error) {
	store, err := resultstore.Open(dir)
	if err != nil {
		return ledger.AuditReport{}, err
	}
	lg, err := ledger.Open(ledger.DefaultPath(dir), nil)
	if err != nil {
		return ledger.AuditReport{}, err
	}
	sp := tr.begin(0, layerLedger, spanLedgerAudit, false)
	defer sp.end()
	return ledger.Audit(store, lg)
}

func (r *serveRep) close() error {
	var err error
	if r.stack != nil {
		err = r.stack.close()
	}
	if rerr := os.RemoveAll(r.dir); err == nil {
		err = rerr
	}
	return err
}

func (c reqClass) String() string {
	switch c {
	case classMiss:
		return "miss"
	case classMemoHit:
		return "memo hit"
	}
	return "store hit"
}

// trace runs the rep with timing wrappers around the result store, its
// file system and the ledger's, plus engine events and per-class client
// latency; then it re-enacts every simulated tuple through the layers the
// engine calls, one at a time, checked against the results the server
// returned.
func (w serveWorkload) trace(ctx context.Context, env *env, tr *tracer) (*traceResult, error) {
	res := newTraceResult()
	m := res.metrics

	events := &eventLog{}
	store := &timedStore{tr: tr}
	hooks := stackHooks{
		storeFS:  timedFS{inner: resultstore.OSFS(), tr: tr, layer: layerResultStore},
		ledgerFS: timedFS{inner: resultstore.OSFS(), tr: tr, layer: layerLedger},
		wrap:     func(inner engine.ResultStore) engine.ResultStore { store.inner = inner; return store },
		progress: events.record,
	}
	runtime.GC()
	traced, err := w.newRep(env, hooks, tr)
	if err != nil {
		return nil, err
	}
	defer traced.close()
	mark := tr.mark()
	if err := traced.run(ctx); err != nil {
		return nil, err
	}
	o := traced.check()
	res.attempted += o.ops
	res.failures = append(res.failures, o.failures...)
	if _, err := audit(traced.dir, tr); err != nil {
		return nil, err
	}
	p := tr.profileSince(mark)
	engineMetrics(m, tr, events.snapshot(), traced.start, traced.end, w.workers, false)

	var all []float64
	byClass := map[reqClass][]float64{}
	for i, resp := range traced.out {
		ms := float64(resp.latency) / 1e6
		all = append(all, ms)
		byClass[traced.classes[i]] = append(byClass[traced.classes[i]], ms)
	}
	m["serve.latency_p50_ms"] = quantile(all, 0.5)
	m["serve.latency_p99_ms"] = quantile(all, 0.99)
	m["serve.miss_p50_ms"] = quantile(byClass[classMiss], 0.5)
	m["serve.memo_hit_p50_ms"] = quantile(byClass[classMemoHit], 0.5)
	m["serve.store_hit_p50_ms"] = quantile(byClass[classStoreHit], 0.5)
	m["serve.merged"] = traced.merged
	m["serve.rejected"] = traced.rejected

	m["resultstore.load_p50_ms"] = p.quantileMS(spanStoreLoad, 0.5)
	m["resultstore.load_p99_ms"] = p.quantileMS(spanStoreLoad, 0.99)
	m["resultstore.put_p50_ms"] = p.quantileMS(spanStorePut, 0.5)
	m["resultstore.put_p99_ms"] = p.quantileMS(spanStorePut, 0.99)
	m["resultstore.fsync_s"] = (p.prefixTotal(layerResultStore+".File.Sync") + p.prefixTotal(layerResultStore+".FS.SyncDir")).Seconds()
	m["resultstore.hits"] = float64(store.hits.Load())
	m["resultstore.misses"] = float64(store.misses.Load())
	m["ledger.fs_s"] = (p.prefixTotal(layerLedger+".FS.") + p.prefixTotal(layerLedger+".File.")).Seconds()
	m["ledger.audit_s"] = p.name(spanLedgerAudit).total.Seconds()
	lg, err := ledger.Open(ledger.DefaultPath(traced.dir), nil)
	if err != nil {
		return nil, err
	}
	head := lg.Head()
	m["ledger.leaves"] = float64(head.Leaves)
	m["ledger.records"] = float64(head.Records)
	if head.Records > 0 {
		m["ledger.batch_mean"] = float64(head.Leaves) / float64(head.Records)
	}

	want := map[string]*engine.Result{}
	for _, resp := range traced.out {
		var sr serve.SimResult
		if resp.err != nil || json.Unmarshal(resp.result, &sr) != nil || sr.Report == nil {
			continue
		}
		want[sr.Fingerprint] = &engine.Result{Report: sr.Report, EmittedLogFlushes: sr.EmittedLogFlushes}
	}
	reenact(m, tr, res, func(tr *tracer, res *traceResult) simCounts {
		return reenactJobs(ctx, tr, events.executed(), want, res)
	})
	return res, nil
}

// timedStore times the engine's result-store calls.
type timedStore struct {
	inner        engine.ResultStore
	tr           *tracer
	hits, misses atomic.Int64
}

func (s *timedStore) Load(key string) (*engine.Result, error) {
	sp := s.tr.begin(0, layerResultStore, spanStoreLoad, false)
	r, err := s.inner.Load(key)
	sp.end()
	if r != nil {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return r, err
}

func (s *timedStore) Store(key string, j engine.Job, res *engine.Result) error {
	sp := s.tr.begin(0, layerResultStore, spanStorePut, false)
	defer sp.end()
	return s.inner.Store(key, j, res)
}

// timedFS times every file-system call a store or ledger makes; spans are
// named <layer>.FS.<call> and <layer>.File.Sync.
type timedFS struct {
	inner resultstore.FS
	tr    *tracer
	layer string
}

func (f timedFS) span(call string) *openSpan { return f.tr.begin(0, f.layer, f.layer+"."+call, false) }

func (f timedFS) ReadFile(name string) ([]byte, error) {
	defer f.span("FS.ReadFile").end()
	return f.inner.ReadFile(name)
}

func (f timedFS) MkdirAll(path string, perm os.FileMode) error {
	defer f.span("FS.MkdirAll").end()
	return f.inner.MkdirAll(path, perm)
}

func (f timedFS) Remove(name string) error {
	defer f.span("FS.Remove").end()
	return f.inner.Remove(name)
}

func (f timedFS) Rename(oldpath, newpath string) error {
	defer f.span("FS.Rename").end()
	return f.inner.Rename(oldpath, newpath)
}

func (f timedFS) SyncDir(dir string) error {
	defer f.span("FS.SyncDir").end()
	return f.inner.SyncDir(dir)
}

func (f timedFS) CreateTemp(dir, pattern string) (resultstore.File, error) {
	sp := f.span("FS.CreateTemp")
	file, err := f.inner.CreateTemp(dir, pattern)
	sp.end()
	if err != nil {
		return nil, err
	}
	return timedFile{File: file, fs: f}, nil
}

type timedFile struct {
	resultstore.File
	fs timedFS
}

func (f timedFile) Write(p []byte) (int, error) {
	defer f.fs.span("File.Write").end()
	return f.File.Write(p)
}

func (f timedFile) Sync() error {
	defer f.fs.span("File.Sync").end()
	return f.File.Sync()
}
