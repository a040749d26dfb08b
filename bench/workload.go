package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/stats"
)

// workloadRunner runs one workload: a set of inputs generated from the
// seed. Each rep starts from fresh state built by setup, so no rep is
// answered from a cache an earlier rep filled.
type workloadRunner interface {
	// setup builds everything one rep needs; its time is setup_s.
	setup(ctx context.Context, env *env) (rep, error)
	// trace runs the traced passes and fills the per-layer metrics.
	trace(ctx context.Context, env *env, tr *tracer) (*traceResult, error)
}

// rep is one prepared repetition of a workload.
type rep interface {
	// run is the timed part.
	run(ctx context.Context) error
	// check inspects what run produced; it is not timed.
	check() outcome
	close() error
}

// outcome is what one rep produced.
type outcome struct {
	// ops counts the work items attempted: simulation jobs, injections or
	// requests, the numerator of ops_per_s.
	ops int
	// failed counts failed items and failed output checks; failures names
	// them.
	failed   int
	failures []string
	// output holds the bytes that must repeat exactly in every rep.
	output []byte
}

// env is what every workload receives from the command line.
type env struct {
	seed    int64
	workdir string // scratch space for on-disk stores
}

// traceResult is what a traced run produced.
type traceResult struct {
	metrics   map[string]float64
	attempted int
	failures  []string
}

func newTraceResult() *traceResult { return &traceResult{metrics: map[string]float64{}} }

func (r *traceResult) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// Span names: the public functions the traced passes time.
const (
	spanJob         = "bench.job"
	spanBuild       = "workload.Build"
	spanGenerate    = "logging.GenerateOpts"
	spanNewSystem   = "core.NewSystem"
	spanRun         = "core.System.RunContext"
	spanStep        = "core.System.Step"
	spanEngineJob   = "engine.Job"
	spanTuple       = "crashcampaign.RunTuple"
	spanApply       = "crashcampaign.Injection.Apply"
	spanOracle      = "recovery.NewOracle"
	spanRecover     = "recovery.Recover"
	spanVerify      = "recovery.Oracle.VerifyPrefix"
	spanCase        = "litmus.Run"
	spanCompile     = "litmus.Program.Compile"
	spanRequest     = "serve.POST /v1/jobs"
	spanStoreLoad   = "resultstore.Store.Load"
	spanStorePut    = "resultstore.Store.Store"
	spanLedgerAudit = "ledger.Audit"
)

// fillLayers sets the per-layer self times and allocations from the spans
// of a re-enactment pass.
func fillLayers(m map[string]float64, p profile) {
	m["workload.build_s"] = p.name(spanBuild).self.Seconds()
	m["workload.build_alloc_mb"] = mb(p.name(spanBuild).alloc)
	m["workload.builds"] = float64(p.name(spanBuild).count)
	m["logging.generate_s"] = p.name(spanGenerate).self.Seconds()
	m["logging.generate_alloc_mb"] = mb(p.name(spanGenerate).alloc)
	m["core.newsystem_s"] = p.name(spanNewSystem).self.Seconds()
	m["core.newsystem_alloc_mb"] = mb(p.name(spanNewSystem).alloc)
	m["core.step_s"] = (p.name(spanRun).self + p.name(spanStep).self).Seconds()
	m["crashcampaign.image_s"] = p.name(spanApply).self.Seconds()
	m["recovery.recover_s"] = p.name(spanRecover).self.Seconds()
	m["recovery.verify_s"] = p.name(spanVerify).self.Seconds()
	m["litmus.compile_s"] = p.name(spanCompile).self.Seconds()
}

// reenact runs a single-goroutine re-enactment pass twice: untraced, as
// the baseline, then traced. It fills the per-layer times and simulated
// counts from the traced pass's spans, the tracing overhead from the two
// walls, and trace.coverage_frac: the share of the traced wall the
// program's layers account for, the rest being benchmark glue and gaps
// between spans. Only the traced pass's checks count.
func reenact(m map[string]float64, tr *tracer, res *traceResult, pass func(*tracer, *traceResult) simCounts) {
	runtime.GC()
	start := time.Now()
	pass(nil, newTraceResult())
	base := time.Since(start)

	runtime.GC()
	mark := tr.mark()
	start = time.Now()
	counts := pass(tr, res)
	wall := time.Since(start)
	p := tr.profileSince(mark)
	fillLayers(m, p)
	counts.fill(m)
	m["trace.wall_s"] = wall.Seconds()
	m["trace.overhead_frac"] = wall.Seconds()/base.Seconds() - 1
	m["trace.coverage_frac"] = p.programSelf().Seconds() / wall.Seconds()
}

func mb(b uint64) float64 { return float64(b) / 1e6 }

// simCounts totals the simulated statistics of re-enacted runs. They
// measure simulated time, not host time: a change that only speeds up the
// simulator leaves every one of them identical.
type simCounts struct {
	uopsEmitted                  uint64
	cycles, retired              uint64
	frontEnd, lltHits, lltMisses uint64
	wpqFullStall, lpqDropped     uint64
	writesData, writesLog        uint64
}

func (c *simCounts) addTraces(traces []*isa.Trace) {
	for _, t := range traces {
		c.uopsEmitted += uint64(t.Len())
	}
}

func (c *simCounts) addReport(r *stats.Report) {
	c.cycles += r.Cycles
	c.retired += r.TotalRetired()
	c.frontEnd += r.TotalFrontEndStalls()
	for _, cs := range r.CoreStat {
		c.lltHits += cs.LLTHits
		c.lltMisses += cs.LLTMisses
	}
	c.wpqFullStall += r.MemStat.WPQFullStall
	c.lpqDropped += r.MemStat.LPQDropped
	c.writesData += r.MemStat.Writes[stats.WriteData]
	c.writesLog += r.MemStat.Writes[stats.WriteLog]
}

func (c *simCounts) fill(m map[string]float64) {
	m["logging.uops_emitted"] = float64(c.uopsEmitted)
	m["core.sim_cycles"] = float64(c.cycles)
	m["core.sim_uops"] = float64(c.retired)
	m["cpu.frontend_stall_cycles"] = float64(c.frontEnd)
	if n := c.lltHits + c.lltMisses; n > 0 {
		m["cpu.llt_miss_pct"] = 100 * float64(c.lltMisses) / float64(n)
	}
	m["memctrl.wpq_full_stall_cycles"] = float64(c.wpqFullStall)
	m["memctrl.lpq_dropped"] = float64(c.lpqDropped)
	m["nvm.writes_data"] = float64(c.writesData)
	m["nvm.writes_log"] = float64(c.writesLog)
	if c.cycles > 0 {
		m["core.host_ns_per_sim_cycle"] = m["core.step_s"] * 1e9 / float64(c.cycles)
	}
}

// eventLog records engine progress events with their arrival times.
type eventLog struct {
	mu     sync.Mutex
	events []timedEvent
}

type timedEvent struct {
	at time.Time
	ev engine.Event
}

// record stamps the event under the lock, so the log is in time order.
func (l *eventLog) record(ev engine.Event) {
	l.mu.Lock()
	l.events = append(l.events, timedEvent{time.Now(), ev})
	l.mu.Unlock()
}

func (l *eventLog) snapshot() []timedEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]timedEvent(nil), l.events...)
}

// executed returns the jobs the engine simulated, in completion order.
func (l *eventLog) executed() []engine.Job {
	var jobs []engine.Job
	for _, e := range l.snapshot() {
		if e.ev.Phase == engine.JobDone && e.ev.Err == nil {
			jobs = append(jobs, e.ev.Job)
		}
	}
	return jobs
}

// engineMetrics fills the engine layer's metrics from one rep's events,
// never from engine.JobMetric.Wall (which includes the wait for a worker
// slot). Each executed job becomes an engine.Job span from JobStart to
// JobDone. With batch set, every job was submitted when the rep started,
// so the queue wait is the time from the rep's start to JobStart, and the
// pool's busy share and tail are derived too.
func engineMetrics(m map[string]float64, tr *tracer, events []timedEvent, start, end time.Time, workers int, batch bool) {
	starts := map[string]time.Time{}
	var waits []float64
	type edge struct {
		at    time.Time
		delta int
	}
	var edges []edge
	var busy time.Duration
	for _, e := range events {
		switch e.ev.Phase {
		case engine.JobCached:
			m["engine.memo_hits"]++
		case engine.JobStoreHit:
			m["engine.store_hits"]++
		case engine.JobStart:
			starts[e.ev.Job.Fingerprint()] = e.at
			waits = append(waits, float64(e.at.Sub(start))/1e6)
			edges = append(edges, edge{e.at, 1})
		case engine.JobDone:
			if e.ev.Err == nil {
				m["engine.simulated"]++
			}
			if s, ok := starts[e.ev.Job.Fingerprint()]; ok {
				tr.record(0, layerEngine, spanEngineJob, s, e.at)
				busy += e.at.Sub(s)
				edges = append(edges, edge{e.at, -1})
			}
		}
	}
	if !batch {
		return
	}
	m["engine.queue_wait_p50_ms"] = quantile(waits, 0.5)
	m["engine.queue_wait_p99_ms"] = quantile(waits, 0.99)
	if wall := end.Sub(start); wall > 0 && workers > 0 {
		m["engine.busy_frac"] = busy.Seconds() / (wall.Seconds() * float64(workers))
	}
	// The tail starts when the pool last dropped below full occupancy.
	lastFull, running := start, 0
	for _, e := range edges { // events arrive in time order
		if running >= workers && running+e.delta < workers {
			lastFull = e.at
		}
		running += e.delta
	}
	m["engine.tail_s"] = end.Sub(lastFull).Seconds()
}
