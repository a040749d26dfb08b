package engine

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/workload"
)

func testJob(scheme core.Scheme) Job {
	cfg := config.Default()
	cfg.Cores = 1
	return Job{
		Kind:   workload.Queue,
		Params: workload.Params{Threads: 1, InitOps: 32, SimOps: 8, Seed: 1},
		Scheme: scheme,
		Config: cfg,
	}
}

func TestMemoizedSingleSimulation(t *testing.T) {
	e := New(Config{Workers: 4})
	ctx := context.Background()
	j := testJob(core.PMEMNoLog)

	// Eight concurrent identical jobs share one simulation.
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = j
	}
	if err := e.RunAll(ctx, jobs); err != nil {
		t.Fatal(err)
	}
	if c := e.Counters(); c.Simulated != 1 || c.WorkloadsBuilt != 1 {
		t.Fatalf("counters after 8 identical jobs: %+v, want 1 simulated / 1 built", c)
	}

	// A later Run is a memo hit returning the very same result.
	r1, err := e.Run(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Run(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("memoized Run returned distinct results")
	}
	if c := e.Counters(); c.Simulated != 1 || c.Deduped < 9 {
		t.Fatalf("counters after memo hits: %+v", c)
	}
	if r1.Report == nil || r1.Report.Cycles == 0 {
		t.Fatalf("bad result: %+v", r1)
	}
}

func TestWorkloadSharedAcrossSchemes(t *testing.T) {
	e := New(Config{Workers: 2})
	jobs := []Job{testJob(core.PMEM), testJob(core.Proteus), testJob(core.ATOM)}
	if err := e.RunAll(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	c := e.Counters()
	if c.Simulated != 3 {
		t.Fatalf("simulated %d, want 3 (distinct schemes)", c.Simulated)
	}
	if c.WorkloadsBuilt != 1 {
		t.Fatalf("built %d workloads, want 1 shared across schemes", c.WorkloadsBuilt)
	}
}

func TestConfigChangesAreDistinctJobs(t *testing.T) {
	e := New(Config{Workers: 2})
	a := testJob(core.Proteus)
	b := a
	b.Config.Proteus.LogQ = 4
	if err := e.RunAll(context.Background(), []Job{a, b}); err != nil {
		t.Fatal(err)
	}
	if c := e.Counters(); c.Simulated != 2 {
		t.Fatalf("simulated %d, want 2 (configs differ)", c.Simulated)
	}
}

func TestCancelledRunRetries(t *testing.T) {
	e := New(Config{Workers: 1})
	j := testJob(core.PMEM)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Run(ctx, j); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Run: err = %v, want context.Canceled", err)
	}
	// The cancelled attempt must not be memoized.
	res, err := e.Run(context.Background(), j)
	if err != nil {
		t.Fatalf("retry after cancel: %v", err)
	}
	if res == nil || res.Report.Cycles == 0 {
		t.Fatal("retry returned no result")
	}
}

func TestJobTimeout(t *testing.T) {
	e := New(Config{Workers: 1, JobTimeout: time.Nanosecond})
	if _, err := e.Run(context.Background(), testJob(core.PMEM)); !errors.Is(err, ErrJobTimeout) {
		t.Fatalf("err = %v, want ErrJobTimeout", err)
	}
	// A job timeout is a memoized failure, not a cancellation: the retry
	// answers from the memo table instead of waiting out the timeout again.
	start := time.Now()
	if _, err := e.Run(context.Background(), testJob(core.PMEM)); !errors.Is(err, ErrJobTimeout) {
		t.Fatalf("memoized retry: err = %v, want ErrJobTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("memoized retry took %v; the failure was re-simulated", elapsed)
	}
	if c := e.Counters(); c.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", c.Failed)
	}
}

func TestRunAllDrainsPastJobFailure(t *testing.T) {
	e := New(Config{Workers: 1})
	bad := testJob(core.PMEM)
	bad.Config.Cores = 0 // fails validation inside NewSystem
	good := testJob(core.Proteus)
	if err := e.RunAll(context.Background(), []Job{bad, good}); err != nil {
		t.Fatalf("RunAll aborted the suite on a per-job failure: %v", err)
	}
	if _, err := e.Run(context.Background(), bad); err == nil {
		t.Fatal("bad job's failure was not memoized")
	}
	res, err := e.Run(context.Background(), good)
	if err != nil || res.Report.Cycles == 0 {
		t.Fatalf("good job did not complete: res=%v err=%v", res, err)
	}
	if c := e.Counters(); c.Failed != 1 || c.Simulated != 1 {
		t.Fatalf("counters %+v, want 1 failed / 1 simulated", c)
	}
}

// TestUnknownSchemeFailsBeforeRun: a scheme the generator has no
// expansion for fails the job with the generator's error before any
// System is built. Streaming must not defer the check to the first
// refill, where the core would simply run the ops it did get.
func TestUnknownSchemeFailsBeforeRun(t *testing.T) {
	e := New(Config{Workers: 1})
	_, err := e.Run(context.Background(), testJob(core.Scheme(99)))
	if err == nil || !strings.Contains(err.Error(), "unknown scheme") {
		t.Fatalf("err = %v, want an unknown-scheme failure", err)
	}
	if c := e.Counters(); c.Failed != 1 || c.Simulated != 0 {
		t.Fatalf("counters %+v, want 1 failed / 0 simulated", c)
	}
}

// TestRunAllDrainsPastTimeout is the regression test for the suite-abort
// bug: one job forced past Config.JobTimeout must fail alone while every
// sibling runs to completion.
func TestRunAllDrainsPastTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a deliberately slow simulation")
	}
	e := New(Config{Workers: 2, JobTimeout: 300 * time.Millisecond})
	slow := testJob(core.PMEM)
	slow.Params.SimOps = 30000 // seconds of simulation: cannot beat the timeout
	fast := []Job{testJob(core.Proteus), testJob(core.ATOM), testJob(core.PMEMNoLog)}

	if err := e.RunAll(context.Background(), append([]Job{slow}, fast...)); err != nil {
		t.Fatalf("RunAll aborted the suite on a job timeout: %v", err)
	}
	if _, err := e.Run(context.Background(), slow); !errors.Is(err, ErrJobTimeout) {
		t.Fatalf("slow job: err = %v, want ErrJobTimeout", err)
	}
	for _, j := range fast {
		res, err := e.Run(context.Background(), j)
		if err != nil || res.Report.Cycles == 0 {
			t.Fatalf("sibling %v did not survive the slow job: res=%v err=%v", j, res, err)
		}
	}
	if c := e.Counters(); c.Failed != 1 || c.Simulated != uint64(len(fast)) {
		t.Fatalf("counters %+v, want 1 failed / %d simulated", c, len(fast))
	}
	var failed int
	for _, m := range e.Metrics() {
		if m.Err != "" {
			failed++
		}
	}
	if failed != 1 {
		t.Fatalf("metrics report %d failed jobs, want 1:\n%+v", failed, e.Metrics())
	}
}

func TestProgressEvents(t *testing.T) {
	var mu sync.Mutex
	counts := map[Phase]int{}
	e := New(Config{Workers: 2, Progress: func(ev Event) {
		mu.Lock()
		counts[ev.Phase]++
		mu.Unlock()
	}})
	ctx := context.Background()
	j := testJob(core.PMEMNoLog)
	if _, err := e.Run(ctx, j); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(ctx, j); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if counts[JobStart] != 1 || counts[JobDone] != 1 || counts[JobCached] != 1 {
		t.Fatalf("event counts = %v, want 1 start / 1 done / 1 cached", counts)
	}
}

// TestDoSharesWorkerPool: Do occupies a worker slot — with one worker, two
// Do calls serialize — and applies the per-job timeout as ErrJobTimeout.
func TestDoSharesWorkerPool(t *testing.T) {
	e := New(Config{Workers: 1, JobTimeout: 50 * time.Millisecond})
	ctx := context.Background()

	var active, maxActive int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = e.Do(ctx, func(context.Context) error {
				mu.Lock()
				active++
				if active > maxActive {
					maxActive = active
				}
				mu.Unlock()
				time.Sleep(5 * time.Millisecond)
				mu.Lock()
				active--
				mu.Unlock()
				return nil
			})
		}()
	}
	wg.Wait()
	if maxActive != 1 {
		t.Fatalf("pool of 1 ran %d Do bodies concurrently", maxActive)
	}

	err := e.Do(ctx, func(c context.Context) error {
		<-c.Done()
		return c.Err()
	})
	if !errors.Is(err, ErrJobTimeout) {
		t.Fatalf("timeout surfaced as %v, want ErrJobTimeout", err)
	}
}

// TestJobTimeExcludesSlotWait: a job's JobMetric.Wall and JobDone Elapsed
// time its run, not its wait for a worker slot. A Do holds the only slot
// for 300 ms while the job queues behind it.
func TestJobTimeExcludesSlotWait(t *testing.T) {
	const hold = 300 * time.Millisecond
	var elapsed time.Duration
	e := New(Config{Workers: 1, Progress: func(ev Event) {
		if ev.Phase == JobDone {
			elapsed = ev.Elapsed
		}
	}})
	ctx := context.Background()
	j := testJob(core.PMEM)
	if _, err := e.Workload(ctx, j.Kind, j.Params); err != nil {
		t.Fatal(err)
	}
	held := make(chan struct{})
	done := make(chan error)
	go func() {
		done <- e.Do(ctx, func(context.Context) error {
			close(held)
			time.Sleep(hold)
			return nil
		})
	}()
	<-held
	queued := time.Now()
	if _, err := e.Run(ctx, j); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(queued); waited < hold*9/10 {
		t.Fatalf("Run returned after %v; it did not queue behind the %v hold", waited, hold)
	}
	m := e.Metrics()
	if len(m) != 1 {
		t.Fatalf("%d metrics, want 1", len(m))
	}
	if m[0].Wall >= hold*2/3 || elapsed >= hold*2/3 {
		t.Fatalf("job timed at Wall %v / Elapsed %v behind a %v slot hold: the wait for the slot is counted", m[0].Wall, elapsed, hold)
	}
	if m[0].Wall <= 0 || elapsed <= 0 {
		t.Fatalf("job timed at Wall %v / Elapsed %v, want the run's duration", m[0].Wall, elapsed)
	}
}

// TestBuildWaitHoldsNoSlot: a job whose workload another job is building
// waits for that build without holding a worker slot. On two workers one
// AVL job builds a slow workload and a second AVL job waits for it; a tiny
// QE job submitted behind them runs in the slot the waiting job left free
// and finishes before either AVL job.
func TestBuildWaitHoldsNoSlot(t *testing.T) {
	var mu sync.Mutex
	var done []workload.Kind
	var qeAt time.Time
	building := make(chan struct{}, 1)
	e := New(Config{Workers: 2, Progress: func(ev Event) {
		switch {
		case ev.Phase == JobStart && ev.Job.Kind == workload.AVLTree:
			select {
			case building <- struct{}{}:
			default:
			}
		case ev.Phase == JobDone:
			mu.Lock()
			done = append(done, ev.Job.Kind)
			if ev.Job.Kind == workload.Queue {
				qeAt = time.Now()
			}
			mu.Unlock()
		}
	}})
	avl := func(scheme core.Scheme) Job {
		j := testJob(scheme)
		j.Kind = workload.AVLTree
		j.Params.InitOps = 60000
		return j
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	run := func(j Job) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Run(ctx, j); err != nil {
				t.Error(err)
			}
		}()
	}
	run(avl(core.PMEM))
	<-building // the first AVL job holds a slot and builds
	run(avl(core.Proteus))
	// Give the second AVL job time to reach the build wait, so a job that
	// waited there in a slot would hold the QE job up. The QE job finishes
	// first on a correct engine whether or not it has.
	time.Sleep(20 * time.Millisecond)
	submitted := time.Now()
	run(testJob(core.PMEM))
	wg.Wait()
	if len(done) != 3 || done[0] != workload.Queue {
		t.Fatalf("jobs finished in order %v, %v after the QE job's submission: the QE job queued behind a job waiting on a build in its slot",
			done, qeAt.Sub(submitted))
	}
	if c := e.Counters(); c.WorkloadsBuilt != 2 || c.Simulated != 3 {
		t.Fatalf("counters %+v, want 2 builds / 3 simulations", c)
	}
}

// TestExportedWorkloadSharesBuilds: Engine.Workload memoizes with the
// builds done by Run.
func TestExportedWorkloadSharesBuilds(t *testing.T) {
	e := New(Config{Workers: 2})
	ctx := context.Background()
	j := testJob(core.PMEMNoLog)
	if _, err := e.Run(ctx, j); err != nil {
		t.Fatal(err)
	}
	w, err := e.Workload(ctx, j.Kind, j.Params)
	if err != nil {
		t.Fatal(err)
	}
	if w == nil || len(w.Heaps) == 0 {
		t.Fatal("empty workload")
	}
	if got := e.Counters().WorkloadsBuilt; got != 1 {
		t.Fatalf("workload built %d times, want 1 (shared)", got)
	}
}

// recordingStore is a fake ResultStore that records every Store call and
// always misses on Load, so tests can assert what the engine persists.
type recordingStore struct {
	mu     sync.Mutex
	stored []string
}

func (s *recordingStore) Load(string) (*Result, error) { return nil, nil }

func (s *recordingStore) Store(key string, _ Job, _ *Result) error {
	s.mu.Lock()
	s.stored = append(s.stored, key)
	s.mu.Unlock()
	return nil
}

func (s *recordingStore) keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.stored...)
}

// bigJob is sized so a simulation runs long enough to be cancelled
// mid-flight (the core checks its context every 100k simulated cycles).
func bigJob() Job {
	cfg := config.Default()
	cfg.Cores = 2
	return Job{
		Kind:   workload.Queue,
		Params: workload.Params{Threads: 2, InitOps: 4096, SimOps: 30000, Seed: 7},
		Scheme: core.Proteus,
		Config: cfg,
	}
}

// TestCancelMidRunReturnsPromptly: cancelling the context while a
// simulation is in flight returns within a fraction of the job's full
// runtime, the aborted attempt is neither memoized nor persisted, and a
// subsequent Run recomputes cleanly.
func TestCancelMidRunReturnsPromptly(t *testing.T) {
	store := &recordingStore{}
	started := make(chan struct{})
	var once sync.Once
	e := New(Config{Workers: 1, Store: store, Progress: func(ev Event) {
		if ev.Phase == JobStart {
			once.Do(func() { close(started) })
		}
	}})
	j := bigJob()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.Run(ctx, j)
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled mid-run: err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled Run did not return promptly")
	}

	// The aborted attempt must not have been persisted...
	if keys := store.keys(); len(keys) != 0 {
		t.Fatalf("cancelled run was written to the result store: %v", keys)
	}
	// ...nor memoized: the retry recomputes and succeeds.
	res, err := e.Run(context.Background(), j)
	if err != nil {
		t.Fatalf("retry after mid-run cancel: %v", err)
	}
	if res == nil || res.Report == nil || res.Report.Cycles == 0 {
		t.Fatal("retry returned an empty result")
	}
	if c := e.Counters(); c.Failed != 0 {
		t.Fatalf("cancellation counted as failure: %+v", c)
	}
	// Only the successful retry reached the store.
	if keys := store.keys(); len(keys) != 1 || keys[0] != j.Fingerprint() {
		t.Fatalf("store writes after retry = %v, want exactly [%s]", keys, j.Fingerprint())
	}
}

// TestCancelDoesNotPoisonSharedEntry: when several callers share one
// in-flight job and the whole engine run is cancelled, later engines (or
// the same one) recompute rather than observing a poisoned memo entry.
func TestCancelRunAllRecomputes(t *testing.T) {
	store := &recordingStore{}
	started := make(chan struct{})
	var once sync.Once
	e := New(Config{Workers: 2, Store: store, Progress: func(ev Event) {
		if ev.Phase == JobStart {
			once.Do(func() { close(started) })
		}
	}})
	jobs := []Job{bigJob(), bigJob()} // identical: one shared entry

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- e.RunAll(ctx, jobs) }()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunAll err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled RunAll did not return promptly")
	}
	if keys := store.keys(); len(keys) != 0 {
		t.Fatalf("cancelled RunAll persisted results: %v", keys)
	}
	if err := e.RunAll(context.Background(), jobs); err != nil {
		t.Fatalf("RunAll retry after cancel: %v", err)
	}
	if c := e.Counters(); c.Simulated != 1 {
		t.Fatalf("retry simulated %d times, want 1 (identical jobs share one entry)", c.Simulated)
	}
}

// TestSimSpecBounds: a spec whose machine Validate refuses, or whose
// operation counts exceed Table 2's, is rejected when the job is made,
// before anything is built or allocated; the bounds themselves pass.
func TestSimSpecBounds(t *testing.T) {
	spec := func(mutate func(*SimSpec)) SimSpec {
		s := DefaultSimSpec
		mutate(&s)
		return s
	}
	for name, s := range map[string]SimSpec{
		"lpq":     spec(func(s *SimSpec) { s.LPQ = 1<<31 - 1 }),
		"logq":    spec(func(s *SimSpec) { s.LogQ = 1<<31 - 1 }),
		"initops": spec(func(s *SimSpec) { s.InitOps = 1_000_000_000 }),
		"simops":  spec(func(s *SimSpec) { s.SimOps = 1_000_000_000 }),
		"threads": spec(func(s *SimSpec) { s.Threads = 0 }),
	} {
		if j, err := s.Job(); err == nil {
			t.Errorf("%s: oversized spec accepted as %v", name, j)
		}
	}
	ok := spec(func(s *SimSpec) { s.LPQ, s.LogQ, s.InitOps, s.SimOps = 65536, 4096, 100_000, 100_000 })
	if _, err := ok.Job(); err != nil {
		t.Errorf("spec at the bounds: %v", err)
	}
}
