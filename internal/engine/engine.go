// Package engine is the shared simulation-job layer under the experiment
// harness. Every figure of the evaluation is a matrix of (workload,
// scheme, config) tuples; the engine runs such tuples through a bounded
// worker pool, memoizes each result under a stable key (the workload
// parameters plus config.Config.Fingerprint()), and builds each workload
// exactly once no matter how many jobs — or figures — reference it.
//
// Determinism: each simulation is single-goroutine and seeded, workloads
// are immutable once built, and results are keyed rather than ordered by
// completion, so a table assembled from engine results is byte-identical
// whether the pool runs 1 worker or N.
package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/logging"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ErrJobTimeout marks a per-job wall-clock timeout (Config.JobTimeout).
// Unlike a cancellation of the caller's context, a job timeout is a
// property of the job under this engine's configuration: the failure is
// memoized, surfaced in Counters and Metrics, and does not abort the
// sibling jobs of a RunAll.
var ErrJobTimeout = errors.New("job timeout exceeded")

// Job names one simulation: build (or reuse) the workload for
// (Kind, Params), generate the Scheme's micro-ops under Config with the
// logging options, and run the machine to completion. Its JSON encoding
// is the cluster's sim payload: benchmark and scheme by name, the rest as
// their full structs, so a decoded job has the same Fingerprint.
type Job struct {
	Kind   workload.Kind   `json:"bench"`
	Scheme core.Scheme     `json:"scheme"`
	Params workload.Params `json:"params"`
	Config config.Config   `json:"config"`
	Log    logging.Options `json:"log"`
}

func (j Job) String() string {
	return fmt.Sprintf("%v/%v/%s", j.Kind, j.Scheme, j.Config.Mem.Kind)
}

// jobKey is the memoization key: the job with the config collapsed to its
// fingerprint. All fields are comparable, so identical tuples collide by
// construction.
type jobKey struct {
	kind   workload.Kind
	params workload.Params
	scheme core.Scheme
	cfg    string
	log    logging.Options
}

func (j Job) key() jobKey {
	return jobKey{j.Kind, j.Params, j.Scheme, j.Config.Fingerprint(), j.Log}
}

// Fingerprint returns a short stable digest of the complete job tuple
// (the memoization key, params and logging options included). It is what
// per-job artifacts — trace files, metrics rows — use to stay unique even
// when two jobs share a workload kind, scheme and config.
func (j Job) Fingerprint() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%#v", j.key())))
	return hex.EncodeToString(h[:8])
}

type wlKey struct {
	kind   workload.Kind
	params workload.Params
}

// Result is what one simulation produced. Its JSON encoding is both the
// cluster's sim result and the result a store entry carries.
type Result struct {
	Report *stats.Report `json:"report"`
	// EmittedLogFlushes counts the log-flush micro-ops generated for the
	// run, before any run-time LLT filtering (the quantity the
	// static-vs-dynamic filtering ablation compares).
	EmittedLogFlushes uint64 `json:"emitted_log_flushes"`
}

// Phase tags a progress event.
type Phase int

const (
	// JobStart fires when a simulation begins executing on a worker: it
	// holds a slot, and its workload is built or being built by it.
	JobStart Phase = iota
	// JobDone fires when a simulation finishes (Err reports failure).
	JobDone
	// JobCached fires when a Run call is answered from the memo table
	// (including waiting on an identical in-flight job).
	JobCached
	// JobStoreHit fires when a Run call is answered from the persistent
	// result store (Config.Store) without simulating.
	JobStoreHit
)

func (p Phase) String() string {
	switch p {
	case JobStart:
		return "start"
	case JobDone:
		return "done"
	case JobCached:
		return "cached"
	case JobStoreHit:
		return "store-hit"
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// Event is one progress notification. The callback runs on worker
// goroutines and must be safe for concurrent use.
type Event struct {
	Job     Job
	Phase   Phase
	Err     error
	Elapsed time.Duration // set on JobDone; timed from JobStart
}

// ResultStore persists successful results across processes. The engine
// consults it after a memo-table miss (keyed by Job.Fingerprint()) and
// writes every successfully simulated result back. Load returns (nil, nil)
// on a miss; an error from either method is treated as a miss — a sick
// store degrades to re-simulation, never to a failed job. Implementations
// must be safe for concurrent use. Only completed results ever reach
// Store: cancelled, timed-out and failed runs are not persisted.
type ResultStore interface {
	Load(key string) (*Result, error)
	Store(key string, j Job, res *Result) error
}

// Config tunes an Engine.
type Config struct {
	// Workers bounds concurrent simulations; <= 0 means GOMAXPROCS.
	Workers int
	// JobTimeout is a wall-clock bound per simulation, from JobStart; 0
	// means none. An expiry fails only that job (ErrJobTimeout): siblings
	// keep running.
	JobTimeout time.Duration
	// Progress, when non-nil, receives an Event per job transition.
	Progress func(Event)
	// Trace, when non-nil, is consulted once per executed simulation
	// (memo hits replay no trace) and returns the tracer the run records
	// into; a nil tracer skips tracing for that job. The engine closes
	// the tracer when the simulation finishes.
	Trace func(Job) (*trace.Tracer, error)
	// Store, when non-nil, is the persistent result store: memo-table
	// misses are answered from it when possible, and successful
	// simulations are written back so identical tuples in later
	// processes (or other transports) are near-instant.
	Store ResultStore
	// Stepper selects the simulation stepper for every job (the zero
	// value is the event-driven fast path; core.StepperReference retains
	// the cycle-at-a-time oracle for bisection).
	Stepper core.Stepper
}

// Counters reports what an engine has executed so far.
type Counters struct {
	// Simulated counts simulations actually run (unique tuples).
	Simulated uint64
	// Deduped counts Run calls answered from the memo table.
	Deduped uint64
	// WorkloadsBuilt counts distinct (kind, params) workload builds.
	WorkloadsBuilt uint64
	// Failed counts executed jobs that ended in a memoized failure (a
	// job timeout or a simulation error); suite cancellations, which are
	// retried on the next Run, are not counted.
	Failed uint64
	// StoreHits counts Run calls answered from the persistent result
	// store (Config.Store) instead of simulating.
	StoreHits uint64
	// StoreErrors counts store Load calls that returned an error —
	// typically a corrupt or quarantined entry (resultstore's digest
	// verification). Each one degraded to a miss: the job was
	// re-simulated and, on success, re-stored, healing the entry.
	StoreErrors uint64
}

// JobMetric records one executed simulation for the metrics summary.
type JobMetric struct {
	// Job is the human-readable tuple name (workload/scheme/mem).
	Job string `json:"job"`
	// Fingerprint is Job.Fingerprint(): unique per memoization key.
	Fingerprint string `json:"fingerprint"`
	// Cycles is the simulated cycle count of the run (0 on failure).
	Cycles uint64 `json:"cycles"`
	// Wall is the wall-clock duration of the simulation, from JobStart:
	// queueing for a worker slot and waiting for another job's build of
	// the same workload are excluded.
	Wall time.Duration `json:"wall_ns"`
	// Err is the failure message, empty for a successful run.
	Err string `json:"err,omitempty"`
}

// Engine runs simulation jobs. It is safe for concurrent use; all methods
// may be called from multiple goroutines.
type Engine struct {
	conf Config
	sem  chan struct{}

	mu   sync.Mutex
	jobs map[jobKey]*jobEntry
	wls  map[wlKey]*wlEntry

	metricsMu sync.Mutex
	metrics   []JobMetric

	simulated atomic.Uint64
	deduped   atomic.Uint64
	built     atomic.Uint64
	failed    atomic.Uint64
	storeHits atomic.Uint64
	storeErrs atomic.Uint64
}

type jobEntry struct {
	done chan struct{}
	res  *Result
	err  error
}

type wlEntry struct {
	done chan struct{}
	wl   *workload.Workload
	err  error
}

// New returns an engine with the given configuration.
func New(conf Config) *Engine {
	if conf.Workers <= 0 {
		conf.Workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		conf: conf,
		sem:  make(chan struct{}, conf.Workers),
		jobs: make(map[jobKey]*jobEntry),
		wls:  make(map[wlKey]*wlEntry),
	}
}

// Stepper returns the stepper every job of the engine runs with.
func (e *Engine) Stepper() core.Stepper { return e.conf.Stepper }

// Counters snapshots the execution counters.
func (e *Engine) Counters() Counters {
	return Counters{
		Simulated:      e.simulated.Load(),
		Deduped:        e.deduped.Load(),
		WorkloadsBuilt: e.built.Load(),
		Failed:         e.failed.Load(),
		StoreHits:      e.storeHits.Load(),
		StoreErrors:    e.storeErrs.Load(),
	}
}

// Metrics returns one entry per executed simulation (memo hits excluded),
// sorted by job name then fingerprint so the summary is deterministic
// regardless of completion order.
func (e *Engine) Metrics() []JobMetric {
	e.metricsMu.Lock()
	out := append([]JobMetric(nil), e.metrics...)
	e.metricsMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Job != out[j].Job {
			return out[i].Job < out[j].Job
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}

func (e *Engine) recordMetric(j Job, res *Result, err error, elapsed time.Duration) {
	m := JobMetric{Job: j.String(), Fingerprint: j.Fingerprint(), Wall: elapsed}
	if res != nil && res.Report != nil {
		m.Cycles = res.Report.Cycles
	}
	if err != nil {
		m.Err = err.Error()
	}
	e.metricsMu.Lock()
	e.metrics = append(e.metrics, m)
	e.metricsMu.Unlock()
}

func (e *Engine) emit(ev Event) {
	if e.conf.Progress != nil {
		e.conf.Progress(ev)
	}
}

// Run executes the job, or returns the memoized result of an identical
// earlier job. Concurrent Run calls for the same tuple share one
// simulation. A result produced by a cancelled or timed-out run is not
// memoized, so a later invocation with a live context retries.
func (e *Engine) Run(ctx context.Context, j Job) (*Result, error) {
	key := j.key()
	e.mu.Lock()
	if ent, ok := e.jobs[key]; ok {
		e.mu.Unlock()
		e.deduped.Add(1)
		e.emit(Event{Job: j, Phase: JobCached})
		select {
		case <-ent.done:
			return ent.res, ent.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	ent := &jobEntry{done: make(chan struct{})}
	e.jobs[key] = ent
	e.mu.Unlock()

	if e.conf.Store != nil {
		// Memo miss: consult the persistent store before simulating. A
		// load error — including a corrupt entry the store detected and
		// quarantined — degrades to a miss: the job is re-simulated and
		// the successful result re-stored, which is the store's healing
		// path. The error is counted so /metrics can surface corruption.
		if res, err := e.conf.Store.Load(j.Fingerprint()); err == nil && res != nil {
			e.storeHits.Add(1)
			ent.res = res
			close(ent.done)
			e.emit(Event{Job: j, Phase: JobStoreHit})
			return res, nil
		} else if err != nil {
			e.storeErrs.Add(1)
		}
	}

	res, elapsed, err := e.simulate(ctx, j)
	if err != nil && !errors.Is(err, ErrJobTimeout) &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		// Cancellation is a property of this invocation, not of the job:
		// forget the entry so a later call can retry. A per-job timeout
		// (ErrJobTimeout) is NOT a cancellation — it stays memoized as a
		// failure so table assembly does not wait out the timeout twice.
		e.mu.Lock()
		delete(e.jobs, key)
		e.mu.Unlock()
	} else {
		if err != nil {
			e.failed.Add(1)
		} else if e.conf.Store != nil {
			// Persist only completed results; a write error is dropped
			// (the caller still gets the live result) and the tuple is
			// simply re-simulated by the next process.
			_ = e.conf.Store.Store(j.Fingerprint(), j, res)
		}
		e.recordMetric(j, res, err, elapsed)
	}
	ent.res, ent.err = res, err
	close(ent.done)
	e.emit(Event{Job: j, Phase: JobDone, Err: err, Elapsed: elapsed})
	return res, err
}

// RunAll runs every job concurrently (bounded by the worker pool) and
// waits for all of them. A per-job failure — a simulation error or a
// Config.JobTimeout expiry — does not abort the siblings: the suite
// drains every job, the failure stays memoized (a later Run for the tuple
// returns it instantly), and it is surfaced through Counters().Failed and
// Metrics(). Only cancellation of ctx itself stops the suite early, and
// only that cancellation is returned as RunAll's error.
func (e *Engine) RunAll(ctx context.Context, jobs []Job) error {
	var wg sync.WaitGroup
	for _, j := range jobs {
		j := j
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = e.Run(ctx, j)
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("engine: suite cancelled: %w", err)
	}
	return nil
}

// simulate executes one job on a worker slot and reports how long it ran,
// timed from the moment it holds the slot with its workload built or its
// build claimed: neither the wait for a slot nor the wait for another
// job's build of the same workload is included.
func (e *Engine) simulate(parent context.Context, j Job) (*Result, time.Duration, error) {
	ent, claimed, err := e.acquire(parent, wlKey{j.Kind, j.Params})
	if err != nil {
		return nil, 0, err
	}
	defer func() { <-e.sem }()
	start := time.Now()
	ctx := parent
	if e.conf.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.conf.JobTimeout)
		defer cancel()
	}
	e.emit(Event{Job: j, Phase: JobStart})

	if claimed {
		e.build(ent, j.Kind, j.Params)
	}
	var res *Result
	if err = ent.err; err == nil {
		res, err = e.simulate1(ctx, j, ent.wl)
	}
	elapsed := time.Since(start)
	if err != nil && errors.Is(err, context.DeadlineExceeded) && parent.Err() == nil {
		// The per-job deadline expired while the suite is still live:
		// report it as a job failure, not a cancellation.
		return nil, elapsed, fmt.Errorf("engine: %v: %w after %v", j, ErrJobTimeout, e.conf.JobTimeout)
	}
	return res, elapsed, err
}

// acquire takes a worker slot for a job on workload k and returns holding
// it, with k's entry either done or claimed by the caller (claimed), who
// then builds it in the slot. A job whose workload another job is still
// building gives its slot back until that build is done and then queues
// for one again, so waiting on a build never holds a slot.
func (e *Engine) acquire(ctx context.Context, k wlKey) (ent *wlEntry, claimed bool, err error) {
	for {
		select {
		case e.sem <- struct{}{}:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if ent, claimed = e.claim(k); claimed {
			return ent, true, nil
		}
		select {
		case <-ent.done:
			return ent, false, nil
		default:
		}
		<-e.sem
		select {
		case <-ent.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

// simulate1 runs the machine under an already-bounded context. Its cores
// stream their ops (logging.NewSystem), as every simulated machine's do,
// and the finished streams supply the emitted log-flush count.
func (e *Engine) simulate1(ctx context.Context, j Job, w *workload.Workload) (*Result, error) {
	sys, streams, err := logging.NewSystem(w, j.Scheme, j.Config, j.Log)
	if err != nil {
		return nil, fmt.Errorf("engine: %v: %w", j, err)
	}
	defer sys.Release()
	sys.SetStepper(e.conf.Stepper)
	var tr *trace.Tracer
	if e.conf.Trace != nil {
		tr, err = e.conf.Trace(j)
		if err != nil {
			return nil, fmt.Errorf("engine: %v: opening trace: %w", j, err)
		}
		if tr != nil {
			sys.SetTracer(tr)
		}
	}
	rep, runErr := sys.RunContext(ctx, 0)
	if tr != nil {
		if cerr := tr.Close(); cerr != nil && runErr == nil {
			runErr = fmt.Errorf("closing trace: %w", cerr)
		}
	}
	if runErr != nil {
		return nil, fmt.Errorf("engine: %v: %w", j, runErr)
	}
	// The finished run consumed every stream, so the counts are complete.
	var emitted uint64
	for _, s := range streams {
		emitted += s.LogFlushes()
	}
	e.simulated.Add(1)
	return &Result{Report: rep, EmittedLogFlushes: emitted}, nil
}

// Do runs fn on a worker slot, applying the engine's per-job timeout. It
// lets non-Job work — the crash campaign's tuple sweeps, each one forward
// pass of its own simulation loop — share the same bounded pool instead
// of stacking a second layer of parallelism on top of it. A
// Config.JobTimeout expiry is reported as ErrJobTimeout, mirroring Run.
func (e *Engine) Do(parent context.Context, fn func(context.Context) error) error {
	select {
	case e.sem <- struct{}{}:
	case <-parent.Done():
		return parent.Err()
	}
	defer func() { <-e.sem }()
	ctx := parent
	if e.conf.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.conf.JobTimeout)
		defer cancel()
	}
	err := fn(ctx)
	if err != nil && errors.Is(err, context.DeadlineExceeded) && parent.Err() == nil {
		return fmt.Errorf("engine: %w after %v", ErrJobTimeout, e.conf.JobTimeout)
	}
	return err
}

// Workload returns the memoized workload build for (kind, params),
// building it on first use; concurrent callers wait for the builder.
// Campaign code uses it to share builds with the experiment jobs running
// through the same engine. Workloads are immutable after Build, so the
// jobs sharing one read it concurrently without copies.
func (e *Engine) Workload(ctx context.Context, kind workload.Kind, params workload.Params) (*workload.Workload, error) {
	ent, claimed := e.claim(wlKey{kind, params})
	if claimed {
		e.build(ent, kind, params)
		return ent.wl, ent.err
	}
	select {
	case <-ent.done:
		return ent.wl, ent.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// claim returns k's workload entry, creating it when there is none; the
// creator (claimed) must build it.
func (e *Engine) claim(k wlKey) (ent *wlEntry, claimed bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ent, ok := e.wls[k]; ok {
		return ent, false
	}
	ent = &wlEntry{done: make(chan struct{})}
	e.wls[k] = ent
	return ent, true
}

// build runs a claimed entry's workload build and publishes the result.
func (e *Engine) build(ent *wlEntry, kind workload.Kind, params workload.Params) {
	ent.wl, ent.err = workload.Build(kind, params)
	if ent.err == nil {
		e.built.Add(1)
	}
	close(ent.done)
}
