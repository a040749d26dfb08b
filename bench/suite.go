package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/logging"
	"repro/internal/stats"
	"repro/internal/workload"
)

// suiteWorkload regenerates Figure 6 — 6 benchmarks × 6 schemes, 36
// engine jobs — through experiments.Suite on a fresh engine every rep.
type suiteWorkload struct {
	opts    experiments.Options // Seed is replaced by the run's seed
	workers int
}

// fig6Suite is the figure-regeneration path every table uses, at the size
// the repository's go-test benchmarks use: stepping the cores dominates.
func fig6Suite() suiteWorkload {
	return suiteWorkload{opts: experiments.Options{Threads: 2, SimScale: 100, InitScale: 4}, workers: 2}
}

// footprintBuild is the same matrix at the full Table 2 footprint with
// few timed operations: building the workloads dominates. It runs on one
// worker because on two a job that wins a worker slot while its workload
// is still being built waits in that slot, so the rep time depends on
// which jobs win the slots (reps of the same inputs ranged 3.1–5.5 s);
// on one worker it is the sum of the builds and runs.
func footprintBuild() suiteWorkload {
	return suiteWorkload{opts: experiments.Options{Threads: 2, SimScale: 1000, InitScale: 1}, workers: 1}
}

type suiteRep struct {
	eng        *engine.Engine
	suite      *experiments.Suite
	tab        *stats.Table
	start, end time.Time
}

func (w suiteWorkload) newRep(ctx context.Context, seed int64, events *eventLog) *suiteRep {
	conf := engine.Config{Workers: w.workers}
	if events != nil {
		conf.Progress = events.record
	}
	opts := w.opts
	opts.Seed = seed
	eng := engine.New(conf)
	return &suiteRep{eng: eng, suite: experiments.NewSuite(ctx, opts, eng)}
}

func (w suiteWorkload) setup(ctx context.Context, env *env) (rep, error) {
	return w.newRep(ctx, env.seed, nil), nil
}

func (r *suiteRep) run(context.Context) error {
	r.start = time.Now()
	tab, err := r.suite.Figure6()
	r.end = time.Now()
	r.tab = tab
	return err
}

func (r *suiteRep) check() outcome {
	c := r.eng.Counters()
	o := outcome{ops: int(c.Simulated + c.Failed), failed: int(c.Failed)}
	for _, jm := range r.eng.Metrics() {
		if jm.Err != "" {
			o.failures = append(o.failures, fmt.Sprintf("job %s: %s", jm.Job, jm.Err))
		}
	}
	for i, row := range r.tab.Rows {
		for j, col := range r.tab.Cols {
			if math.IsNaN(r.tab.Cells[i][j]) {
				o.failed++
				o.failures = append(o.failures, fmt.Sprintf("table cell %s/%s is NaN", row, col))
			}
		}
	}
	o.output = []byte(r.tab.String())
	return o
}

func (r *suiteRep) close() error { return nil }

// trace runs the rep as measured with the engine's progress events (the
// engine layer's metrics and the job list), then re-enacts every job the
// engine ran, one at a time, calling the layers the engine calls with a
// span around each.
func (w suiteWorkload) trace(ctx context.Context, env *env, tr *tracer) (*traceResult, error) {
	res := newTraceResult()
	m := res.metrics

	events := &eventLog{}
	measured := w.newRep(ctx, env.seed, events)
	if err := measured.run(ctx); err != nil {
		return nil, err
	}
	engineMetrics(m, tr, events.snapshot(), measured.start, measured.end, w.workers, true)
	jobs := events.executed()
	want := make(map[string]*engine.Result, len(jobs))
	for _, j := range jobs {
		r, err := measured.eng.Run(ctx, j) // answered from the memo table
		if err != nil {
			return nil, err
		}
		want[j.Fingerprint()] = r
	}
	reenact(m, tr, res, func(tr *tracer, res *traceResult) simCounts {
		return reenactJobs(ctx, tr, jobs, want, res)
	})
	return res, nil
}

// reenactJobs runs each job the way the engine does — build the workload
// (once per kind and parameters), generate the scheme's traces, assemble
// the machine, run it — one job at a time, so each span's allocation
// belongs to it alone. Every report must equal the engine's.
func reenactJobs(ctx context.Context, tr *tracer, jobs []engine.Job, want map[string]*engine.Result, res *traceResult) simCounts {
	// Jobs sharing a workload run back to back, so each is built once, as
	// the engine builds it once.
	type keyed struct {
		wl, fp string
		j      engine.Job
	}
	sorted := make([]keyed, len(jobs))
	for i, j := range jobs {
		sorted[i] = keyed{fmt.Sprintf("%d/%+v", j.Kind, j.Params), j.Fingerprint(), j}
	}
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].wl != sorted[b].wl {
			return sorted[a].wl < sorted[b].wl
		}
		return sorted[a].fp < sorted[b].fp
	})
	var counts simCounts
	var wl *workload.Workload
	for _, k := range sorted {
		j := k.j
		res.attempted++
		job := tr.begin(0, layerBench, spanJob, true)
		rep, err := reenactJob(ctx, tr, job.id(), j, &wl, &counts)
		job.end()
		if err != nil {
			res.fail("job %v: re-enactment failed: %v", j, err)
			continue
		}
		if w := want[k.fp]; w == nil || !reflect.DeepEqual(rep, w.Report) {
			var cycles uint64
			if w != nil {
				cycles = w.Report.Cycles
			}
			res.fail("job %v: re-enacted report differs from the engine's (cycles %d, engine %d)", j, rep.Cycles, cycles)
		}
	}
	return counts
}

// reenactJob runs one job under the parent span. *wl is the current
// workload build, reused while consecutive jobs share kind and params.
func reenactJob(ctx context.Context, tr *tracer, parent int64, j engine.Job, wl **workload.Workload, counts *simCounts) (*stats.Report, error) {
	if *wl == nil || (*wl).Kind != j.Kind || (*wl).Params != j.Params {
		*wl = nil
		s := tr.begin(parent, layerWorkload, spanBuild, true)
		w, err := workload.Build(j.Kind, j.Params)
		s.end()
		if err != nil {
			return nil, err
		}
		*wl = w
	}
	s := tr.begin(parent, layerLogging, spanGenerate, true)
	traces, err := logging.GenerateOpts(*wl, j.Scheme, j.Config, j.Log)
	s.end()
	if err != nil {
		return nil, err
	}
	counts.addTraces(traces)
	s = tr.begin(parent, layerCore, spanNewSystem, true)
	sys, err := core.NewSystem(j.Config, j.Scheme, traces, (*wl).InitImage)
	s.end()
	if err != nil {
		return nil, err
	}
	s = tr.begin(parent, layerCore, spanRun, true)
	rep, err := sys.RunContext(ctx, 0)
	s.end()
	if err != nil {
		return nil, err
	}
	counts.addReport(rep)
	return rep, nil
}
