// Package serve is the simulation-as-a-service layer: an HTTP JSON job
// server over the shared internal/engine. It accepts single simulations,
// figure suites and crash campaigns, executes them on a bounded worker
// pool behind a bounded admission queue (full queue → 429 + Retry-After),
// collapses identical in-flight submissions into one task, answers
// repeated tuples from the engine's memo table and the persistent
// internal/resultstore, propagates per-request deadlines and client
// disconnects into engine contexts, and drains gracefully on SIGTERM.
//
// Endpoints:
//
//	POST /v1/jobs            submit a Spec; 202 {id} (200 if merged into
//	                         an identical in-flight task); ?wait=1 blocks
//	                         until completion and ties the job's context
//	                         to the request's
//	GET  /v1/jobs            list job summaries
//	GET  /v1/jobs/{id}       status + result when done
//	DELETE /v1/jobs/{id}     cancel a queued or running job
//	POST /v1/store/scrub     verify every result-store entry, quarantine
//	                         corrupt ones; returns the scrub report
//	                         (requires Config.Store)
//	GET  /healthz            200 ok, 503 while draining
//	GET  /metrics            Prometheus text format
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/ledger"
	"repro/internal/provenance"
	"repro/internal/resultstore"
)

// State is a task's lifecycle phase.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Config tunes a Server.
type Config struct {
	// Engine executes all jobs; required.
	Engine *engine.Engine
	// Store, when non-nil, is reported in /metrics (cache hit ratio,
	// entry writes). The engine holds the actual read/write hook.
	Store *resultstore.Store
	// QueueDepth bounds the admission queue; <= 0 means 64. A submission
	// arriving while the queue is full is rejected with 429.
	QueueDepth int
	// Workers bounds concurrently executing tasks; <= 0 means 2. Note
	// each task may itself fan out on the engine's worker pool.
	Workers int
	// DefaultTimeout bounds a job's execution when the spec does not set
	// timeout_ms; 0 means unbounded.
	DefaultTimeout time.Duration
	// Cluster, when non-nil, turns this server into the cluster
	// coordinator: its work-pull protocol is mounted under /v1/cluster/,
	// and "sim" and "campaign" submissions are scattered to pull-based
	// workers instead of running on the local engine ("figure" suites
	// stay local — their job matrices already dedup through the shared
	// store). With no workers connected, cluster jobs wait in the
	// coordinator's queue until one joins.
	Cluster *cluster.Coordinator
	// Ledger, when non-nil, mounts the provenance endpoints
	// (GET /v1/ledger/head, GET /v1/ledger/proof?key=…) over the
	// store's tamper-evident ledger.
	Ledger *ledger.Ledger
	// Admissions, when non-nil, records every admitted submission as a
	// batched ledger leaf; the inclusion proof appears in the task's
	// status once its batch seals. Submission is non-blocking — the
	// admission path never waits on ledger I/O.
	Admissions *ledger.Batcher
	// Logger receives structured request and task logs; nil discards.
	Logger *slog.Logger
}

// Server is the job service. Create with New, mount Handler, and call
// Drain before exit.
type Server struct {
	conf  Config
	log   *slog.Logger
	queue chan *task

	baseCtx  context.Context
	baseStop context.CancelFunc
	workers  sync.WaitGroup

	mu       sync.Mutex
	draining bool
	tasks    map[string]*task // by id
	inflight map[string]*task // singleflight: spec fingerprint → live task
	nextID   int

	metrics serverMetrics
}

// task is one admitted submission.
type task struct {
	id  string
	fp  string
	job *job

	cancel context.CancelFunc
	done   chan struct{}

	// admission, when the server ledgers admissions, resolves to the
	// inclusion proof once the admission's batch seals. Written before
	// the task becomes visible; read-only afterwards.
	admission *ledger.Ticket

	mu        sync.Mutex
	state     State
	result    json.RawMessage
	errMsg    string
	submitted time.Time
	started   time.Time
	finished  time.Time
	merged    int // extra submissions collapsed into this task
}

// New returns a server over the engine. Call Start to launch the workers.
func New(conf Config) (*Server, error) {
	if conf.Engine == nil {
		return nil, errors.New("serve: Config.Engine is required")
	}
	if conf.QueueDepth <= 0 {
		conf.QueueDepth = 64
	}
	if conf.Workers <= 0 {
		conf.Workers = 2
	}
	log := conf.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		conf:     conf,
		log:      log,
		queue:    make(chan *task, conf.QueueDepth),
		baseCtx:  ctx,
		baseStop: stop,
		tasks:    make(map[string]*task),
		inflight: make(map[string]*task),
	}
	return s, nil
}

// Start launches the execution workers.
func (s *Server) Start() {
	for i := 0; i < s.conf.Workers; i++ {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			for t := range s.queue {
				s.run(t)
			}
		}()
	}
}

// run executes one task on a worker.
func (s *Server) run(t *task) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	timeout := t.job.spec.Timeout()
	if timeout == 0 {
		timeout = s.conf.DefaultTimeout
	}
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, timeout)
	}
	defer cancel()

	t.mu.Lock()
	if t.state == StateCancelled {
		t.mu.Unlock()
		return
	}
	t.state = StateRunning
	t.started = time.Now()
	t.cancel = cancel
	t.mu.Unlock()
	s.metrics.queueDepth.Add(-1)
	s.metrics.addQueuedByType(t.job.spec.Type, -1)

	res, err := t.job.execute(ctx, s.conf.Engine, s.conf.Cluster)

	t.mu.Lock()
	t.finished = time.Now()
	elapsed := t.finished.Sub(t.started)
	switch {
	case err != nil && (errors.Is(err, context.Canceled) || ctx.Err() != nil && errors.Is(err, context.DeadlineExceeded)):
		t.state = StateCancelled
		t.errMsg = err.Error()
		s.metrics.jobsCancelled.Add(1)
	case err != nil:
		t.state = StateFailed
		t.errMsg = err.Error()
		s.metrics.jobsFailed.Add(1)
	default:
		t.state = StateDone
		t.result = res
		s.metrics.jobsDone.Add(1)
	}
	state := t.state
	t.mu.Unlock()
	s.metrics.jobSeconds.observe(elapsed.Seconds())
	s.retire(t)
	close(t.done)
	s.log.Info("job finished", "id", t.id, "type", t.job.spec.Type, "state", string(state),
		"elapsed", elapsed.Round(time.Millisecond).String(), "err", t.errMsg)
}

// retire removes the task from the singleflight table once it can no
// longer absorb submissions.
func (s *Server) retire(t *task) {
	s.mu.Lock()
	if s.inflight[t.fp] == t {
		delete(s.inflight, t.fp)
	}
	s.mu.Unlock()
}

// Submit admits a spec: it either merges into an identical in-flight
// task, enqueues a new one, or reports backpressure (ErrQueueFull) /
// drain (ErrDraining).
func (s *Server) Submit(spec Spec) (*task, bool, error) {
	j, err := compile(spec)
	if err != nil {
		return nil, false, err
	}
	fp := j.fingerprint()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, false, ErrDraining
	}
	if live, ok := s.inflight[fp]; ok {
		live.mu.Lock()
		live.merged++
		live.mu.Unlock()
		s.metrics.jobsMerged.Add(1)
		return live, true, nil
	}
	s.nextID++
	t := &task{
		id:        fmt.Sprintf("job-%d", s.nextID),
		fp:        fp,
		job:       j,
		done:      make(chan struct{}),
		state:     StateQueued,
		submitted: time.Now(),
	}
	select {
	case s.queue <- t:
	default:
		s.nextID--
		s.metrics.jobsRejected.Add(1)
		return nil, false, ErrQueueFull
	}
	if s.conf.Admissions != nil {
		t.admission = s.conf.Admissions.Submit(admissionLeaf(fp, j))
	}
	s.tasks[t.id] = t
	s.inflight[fp] = t
	s.metrics.queueDepth.Add(1)
	s.metrics.addQueuedByType(t.job.spec.Type, 1)
	return t, false, nil
}

// Cancel cancels a queued or running task. It reports whether the id was
// known.
func (s *Server) Cancel(id string) bool {
	s.mu.Lock()
	t, ok := s.tasks[id]
	s.mu.Unlock()
	if !ok {
		return false
	}
	t.mu.Lock()
	switch t.state {
	case StateQueued:
		t.state = StateCancelled
		t.errMsg = "cancelled before execution"
		t.finished = time.Now()
		s.metrics.jobsCancelled.Add(1)
		s.metrics.queueDepth.Add(-1)
		s.metrics.addQueuedByType(t.job.spec.Type, -1)
		close(t.done)
	case StateRunning:
		if t.cancel != nil {
			t.cancel()
		}
	}
	t.mu.Unlock()
	s.retire(t)
	return true
}

// ErrQueueFull reports admission-queue backpressure (HTTP 429).
var ErrQueueFull = errors.New("serve: admission queue full")

// ErrDraining reports a submission during graceful shutdown (HTTP 503).
var ErrDraining = errors.New("serve: server is draining")

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully shuts the server down: new submissions are refused
// with ErrDraining, queued and running tasks are given until ctx expires
// to finish, and any still alive after that are cancelled and awaited.
// The result store needs no separate flush — every write is an atomic
// synchronous publish. Drain returns nil when all work completed, or
// ctx's error when the deadline forced cancellation.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("serve: already draining")
	}
	s.draining = true
	// No submitter can be inside Submit now (it holds mu), so the queue
	// has no producers left and closing it lets the workers drain it.
	close(s.queue)
	s.mu.Unlock()
	s.log.Info("drain started", "queued", s.metrics.queueDepth.Load())

	finished := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(finished)
	}()
	var err error
	select {
	case <-finished:
	case <-ctx.Done():
		// Deadline: cancel everything still running and wait it out.
		err = ctx.Err()
		s.baseStop()
		s.mu.Lock()
		for _, t := range s.tasks {
			t.mu.Lock()
			if t.state == StateQueued {
				t.state = StateCancelled
				t.errMsg = "cancelled by drain deadline"
				t.finished = time.Now()
				s.metrics.jobsCancelled.Add(1)
				s.metrics.queueDepth.Add(-1)
				s.metrics.addQueuedByType(t.job.spec.Type, -1)
				close(t.done)
			}
			t.mu.Unlock()
		}
		s.mu.Unlock()
		<-finished
	}
	s.baseStop()
	s.log.Info("drain finished", "forced", err != nil)
	return err
}

// ---------------------------------------------------------------------
// HTTP layer

type statusResponse struct {
	ID        string                 `json:"id"`
	Type      string                 `json:"type"`
	State     State                  `json:"state"`
	Merged    int                    `json:"merged,omitempty"`
	Error     string                 `json:"error,omitempty"`
	Result    json.RawMessage        `json:"result,omitempty"`
	Elapsed   string                 `json:"elapsed,omitempty"`
	Deduped   bool                   `json:"deduped,omitempty"`
	Location  string                 `json:"location,omitempty"`
	Admission *ledger.InclusionProof `json:"admission,omitempty"`
}

func (t *task) status(deduped bool) statusResponse {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := statusResponse{
		ID:       t.id,
		Type:     t.job.spec.Type,
		State:    t.state,
		Merged:   t.merged,
		Error:    t.errMsg,
		Deduped:  deduped,
		Location: "/v1/jobs/" + t.id,
	}
	if t.state == StateDone {
		out.Result = t.result
	}
	if !t.finished.IsZero() && !t.started.IsZero() {
		out.Elapsed = t.finished.Sub(t.started).Round(time.Millisecond).String()
	}
	if t.admission != nil {
		if p, err := t.admission.Proof(); err == nil {
			out.Admission = &p
		}
	}
	return out
}

// admissionLeaf records what the serve path accepted: the singleflight
// fingerprint, the job tuple when it is a single simulation (figure and
// campaign specs keep the spec type as the workload tag), and the code
// revision doing the admitting.
func admissionLeaf(fp string, j *job) ledger.Leaf {
	l := ledger.Leaf{
		Kind:     ledger.LeafAdmission,
		Key:      fp,
		Workload: j.spec.Type,
		Revision: provenance.Revision(),
	}
	if j.spec.Type == "sim" {
		l.ConfigFP = j.simJob.Config.Fingerprint()
		l.Scheme = j.simJob.Scheme.String()
		l.Workload = j.simJob.Kind.Abbrev()
	}
	return l
}

// Handler returns the server's HTTP handler with request logging and
// latency accounting wrapped around every route.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.conf.Store != nil {
		mux.HandleFunc("POST /v1/store/scrub", s.handleScrub)
	}
	if s.conf.Ledger != nil {
		mux.HandleFunc("GET /v1/ledger/head", s.handleLedgerHead)
		mux.HandleFunc("GET /v1/ledger/proof", s.handleLedgerProof)
	}
	if s.conf.Cluster != nil {
		mux.Handle("/v1/cluster/", http.StripPrefix("/v1/cluster", s.conf.Cluster.Handler()))
	}
	return s.withRequestLog(mux)
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (s *Server) withRequestLog(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		elapsed := time.Since(start)
		s.metrics.requestSeconds.observe(elapsed.Seconds())
		s.metrics.requests.Add(1)
		s.log.Info("request",
			"method", r.Method, "path", r.URL.Path, "status", rec.status,
			"elapsed", elapsed.Round(time.Microsecond).String(), "remote", r.RemoteAddr)
	})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&spec); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding job spec: %w", err))
		return
	}
	t, deduped, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeErr(w, http.StatusBadRequest, err)
		return
	}

	if r.URL.Query().Get("wait") != "" {
		// Synchronous mode: the job's lifetime is tied to the request.
		// A client disconnect (or request deadline) cancels the task —
		// and with it the engine context — unless another submission
		// shares it.
		select {
		case <-t.done:
		case <-r.Context().Done():
			t.mu.Lock()
			sole := t.merged == 0
			t.mu.Unlock()
			if sole {
				s.Cancel(t.id)
			}
			writeJSON(w, http.StatusRequestTimeout, t.status(deduped))
			return
		}
		writeJSON(w, http.StatusOK, t.status(deduped))
		return
	}
	code := http.StatusAccepted
	if deduped {
		code = http.StatusOK
	}
	w.Header().Set("Location", "/v1/jobs/"+t.id)
	writeJSON(w, code, t.status(deduped))
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	t, ok := s.tasks[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, t.status(false))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if !s.Cancel(r.PathValue("id")) {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "cancelling"})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ids := make([]*task, 0, len(s.tasks))
	for _, t := range s.tasks {
		ids = append(ids, t)
	}
	s.mu.Unlock()
	out := make([]statusResponse, 0, len(ids))
	for _, t := range ids {
		st := t.status(false)
		st.Result = nil // summaries only
		out = append(out, st)
	}
	// Job ids are dense ("job-N"), so sort numerically by suffix.
	sortStatuses(out)
	writeJSON(w, http.StatusOK, out)
}

func sortStatuses(xs []statusResponse) {
	num := func(id string) int {
		n, _ := strconv.Atoi(strings.TrimPrefix(id, "job-"))
		return n
	}
	sort.Slice(xs, func(i, j int) bool { return num(xs[i].ID) < num(xs[j].ID) })
}

// handleScrub runs a full result-store verification pass and reports
// what it found — the operator's repair trigger after a disk scare. The
// store serves normally while the scrub walks it.
func (s *Server) handleScrub(w http.ResponseWriter, _ *http.Request) {
	rep, err := s.conf.Store.Scrub()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	s.log.Info("store scrubbed", "scanned", rep.Scanned, "corrupt", rep.Corrupt,
		"temps_removed", rep.TempsRemoved, "diverged", len(rep.Diverged))
	writeJSON(w, http.StatusOK, rep)
}

// handleLedgerHead publishes the chain tip — the one hash that
// summarizes the whole store history, what an external auditor pins.
func (s *Server) handleLedgerHead(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.conf.Ledger.Head())
}

// handleLedgerProof returns the inclusion proof for the newest leaf
// under ?key=…, optionally narrowed by ?kind=result|admission.
func (s *Server) handleLedgerProof(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		writeErr(w, http.StatusBadRequest, errors.New("missing key parameter"))
		return
	}
	p, err := s.conf.Ledger.Proof(key, r.URL.Query().Get("kind"))
	if errors.Is(err, ledger.ErrNoProof) {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, p)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := map[string]string{"status": "ok", "revision": provenance.Revision()}
	if s.Draining() {
		status["status"] = "draining"
		writeJSON(w, http.StatusServiceUnavailable, status)
		return
	}
	writeJSON(w, http.StatusOK, status)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		data = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
