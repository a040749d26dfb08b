package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/crashcampaign"
	"repro/internal/engine"
	"repro/internal/logging"
	"repro/internal/nvm"
	"repro/internal/recovery"
	"repro/internal/workload"
)

// crashWorkload sweeps crash points over benchmarks × failure-safe schemes
// under every fault model: recovery plus the oracle judge each injection.
type crashWorkload struct {
	benches     []workload.Kind
	schemes     []core.Scheme
	params      workload.Params
	sweep, rand int
	workers     int
}

// crashSweep leaves out Proteus and Proteus+NoLWR: at some seeds (15 and
// 54 of 1–60 at this size) a clean crash under one of them leaves a state
// matching neither the committed prefix nor one more transaction, an open
// defect. The other three failure-safe schemes had no failed injection at
// any seed of 1–150.
func crashSweep() crashWorkload {
	return crashWorkload{
		benches: workload.Table2,
		schemes: []core.Scheme{core.PMEM, core.PMEMPcommit, core.ATOM},
		params: workload.Params{Threads: 2, InitOps: 1024, SimOps: 160,
			SSItems: 256, SSStrSize: 256, ListNodes: 4, ListElems: 64},
		sweep: 32, rand: 8, workers: 2,
	}
}

// config is the campaign for a seed: the workload and the crash points
// both derive from it.
func (w crashWorkload) config(seed int64, eng *engine.Engine) crashcampaign.Config {
	p := w.params
	p.Seed = seed
	c := crashcampaign.Config{
		Benches: w.benches, Schemes: w.schemes, Params: p, Sim: config.Default(),
		Sweep: w.sweep, Rand: w.rand, Faults: crashcampaign.AllFaults, Seed: seed,
		Minimize: crashcampaign.MinimizeOff, Engine: eng,
	}
	c.Normalize()
	return c
}

type crashRep struct {
	cfg        crashcampaign.Config
	report     *crashcampaign.Report
	start, end time.Time
}

func (w crashWorkload) newRep(seed int64, events *eventLog) *crashRep {
	conf := engine.Config{Workers: w.workers}
	if events != nil {
		conf.Progress = events.record
	}
	return &crashRep{cfg: w.config(seed, engine.New(conf))}
}

func (w crashWorkload) setup(_ context.Context, env *env) (rep, error) {
	return w.newRep(env.seed, nil), nil
}

func (r *crashRep) run(ctx context.Context) error {
	r.start = time.Now()
	rep, err := crashcampaign.Run(ctx, r.cfg)
	r.end = time.Now()
	r.report = rep
	return err
}

func (r *crashRep) check() outcome {
	o := outcome{ops: r.report.Totals.Injections, failed: r.report.Totals.Failed}
	for _, t := range r.report.Tuples {
		for _, in := range t.Injections {
			if in.Outcome == crashcampaign.OutcomeFailed {
				o.failures = append(o.failures, fmt.Sprintf("injection %s/%s %s@%d failed: %s", t.Bench, t.Scheme, in.Fault, in.Cycle, in.Detail))
			}
		}
	}
	var buf bytes.Buffer
	if err := r.report.WriteJSON(&buf); err != nil {
		o.failed++
		o.failures = append(o.failures, "encoding the report: "+err.Error())
	}
	o.output = buf.Bytes()
	return o
}

func (r *crashRep) close() error { return nil }

// trace runs the rep as measured with engine events; every tuple through
// crashcampaign.RunTuple on one worker, timed; and a single-pass
// re-enactment that steps one machine per tuple forward through the
// report's crash points, injecting and judging each fault there. The
// single pass is the work a sweep cannot avoid, so the rest of the tuple
// time is the redundant replay from cycle 0.
func (w crashWorkload) trace(ctx context.Context, env *env, tr *tracer) (*traceResult, error) {
	res := newTraceResult()
	m := res.metrics

	events := &eventLog{}
	measured := w.newRep(env.seed, events)
	if err := measured.run(ctx); err != nil {
		return nil, err
	}
	engineMetrics(m, tr, events.snapshot(), measured.start, measured.end, w.workers, false)
	report := measured.report
	totals := report.Totals
	m["crashcampaign.verified"] = float64(totals.Verified)
	m["crashcampaign.detected"] = float64(totals.Detected)
	m["crashcampaign.vulnerable"] = float64(totals.Vulnerable)
	m["crashcampaign.failed"] = float64(totals.Failed)

	runtime.GC()
	cfg := w.config(env.seed, engine.New(engine.Config{Workers: 1}))
	var tupleTime time.Duration
	var tupleSecs []float64
	i := 0
	for _, bench := range cfg.Benches {
		for _, scheme := range cfg.Schemes {
			s := tr.begin(0, layerCrashCampaign, spanTuple, false)
			got, err := crashcampaign.RunTuple(ctx, cfg, bench, scheme)
			d := s.end()
			if err != nil {
				return nil, err
			}
			tupleTime += d
			tupleSecs = append(tupleSecs, d.Seconds())
			res.attempted++
			if i >= len(report.Tuples) || !sameJSON(got, &report.Tuples[i]) {
				res.fail("tuple %v/%v: RunTuple report differs from the campaign's", bench, scheme)
			}
			i++
		}
	}
	m["crashcampaign.tuple_p50_s"] = quantile(tupleSecs, 0.5)
	m["crashcampaign.tuple_max_s"] = quantile(tupleSecs, 1)

	reenact(m, tr, res, func(tr *tracer, res *traceResult) simCounts {
		var counts simCounts
		for ti := range report.Tuples {
			if err := singlePass(ctx, tr, cfg, &report.Tuples[ti], &counts, res); err != nil {
				res.fail("tuple %s/%s: single pass failed: %v", report.Tuples[ti].Bench, report.Tuples[ti].Scheme, err)
			}
		}
		return counts
	})
	needed := m["core.step_s"] + m["crashcampaign.image_s"] + m["recovery.recover_s"] + m["recovery.verify_s"]
	if tupleTime > 0 {
		m["crashcampaign.redundant_frac"] = 1 - needed/tupleTime.Seconds()
	}
	return res, nil
}

// singlePass re-enacts one tuple's sweep in a single forward pass and
// checks every injection's outcome and detail against the report.
func singlePass(ctx context.Context, tr *tracer, cfg crashcampaign.Config, t *crashcampaign.TupleReport, counts *simCounts, res *traceResult) error {
	bench, err := workload.KindByName(t.Bench)
	if err != nil {
		return err
	}
	scheme, err := core.SchemeByName(t.Scheme)
	if err != nil {
		return err
	}
	job := tr.begin(0, layerBench, spanJob, false)
	defer job.end()
	s := tr.begin(job.id(), layerWorkload, spanBuild, true)
	wl, err := workload.Build(bench, cfg.Params)
	s.end()
	if err != nil {
		return err
	}
	s = tr.begin(job.id(), layerRecovery, spanOracle, true)
	oracle := recovery.NewOracle(wl)
	s.end()
	s = tr.begin(job.id(), layerLogging, spanGenerate, true)
	traces, err := logging.GenerateOpts(wl, scheme, cfg.Sim, logging.Options{})
	s.end()
	if err != nil {
		return err
	}
	counts.addTraces(traces)
	s = tr.begin(job.id(), layerCore, spanNewSystem, true)
	sys, err := core.NewSystem(cfg.Sim, scheme, traces, wl.InitImage)
	s.end()
	if err != nil {
		return err
	}
	var faults []crashcampaign.Fault
	for _, f := range cfg.Faults {
		if f.AppliesTo(scheme) {
			faults = append(faults, f)
		}
	}
	threads := cfg.Sim.Cores
	sw := scheme == core.PMEM || scheme == core.PMEMPcommit
	for pi, point := range t.Points {
		if err := ctx.Err(); err != nil {
			return err
		}
		s = tr.begin(job.id(), layerCore, spanStep, false)
		if point > sys.Cycle() && !sys.Finished() {
			sys.Step(point - sys.Cycle())
		}
		s.end()
		committed := committedCounts(sys)
		for fi, f := range faults {
			inj := crashcampaign.Injection{Fault: f, Seed: crashcampaign.InjectionSeed(cfg.Seed,
				t.Bench, t.Scheme, f.String(), fmt.Sprint(point))}
			s = tr.begin(job.id(), layerCrashCampaign, spanApply, false)
			img := inj.Apply(sys, threads)
			s.end()
			out, detail := judge(tr, job.id(), img, scheme, f, threads, oracle, sw, committed)
			res.attempted++
			idx := pi*len(faults) + fi
			if idx >= len(t.Injections) || t.Injections[idx].Outcome != out || t.Injections[idx].Detail != detail {
				res.fail("injection %s/%s %s@%d: re-enacted outcome %s differs from the campaign's", t.Bench, t.Scheme, f, point, out)
			}
		}
	}
	counts.addReport(sys.Report())
	return nil
}

// judge recovers the crash image and verifies it against the oracle,
// mapping the result through the campaign's expectation matrix.
func judge(tr *tracer, parent int64, img *nvm.Store, scheme core.Scheme, fault crashcampaign.Fault, threads int, oracle *recovery.Oracle, sw bool, committed []int) (crashcampaign.Outcome, string) {
	s := tr.begin(parent, layerRecovery, spanRecover, false)
	_, rerr := recovery.Recover(img, scheme, threads)
	s.end()
	if rerr != nil {
		if !recovery.IsDetectedCorruption(rerr) {
			return crashcampaign.OutcomeFailed, "recovery error: " + rerr.Error()
		}
		if fault == crashcampaign.FaultClean || crashcampaign.ExpectSafe(scheme, fault) {
			return crashcampaign.OutcomeFailed, "corruption detected in expected-safe run: " + rerr.Error()
		}
		return crashcampaign.OutcomeDetected, rerr.Error()
	}
	verify := oracle.VerifyPrefix
	if sw {
		verify = oracle.VerifyPrefixSW
	}
	s = tr.begin(parent, layerRecovery, spanVerify, false)
	_, verr := verify(img, committed)
	s.end()
	if verr != nil {
		switch {
		case crashcampaign.ExpectSafe(scheme, fault):
			return crashcampaign.OutcomeFailed, verr.Error()
		case fault == crashcampaign.FaultCorrupt && scheme.FailureSafe():
			return crashcampaign.OutcomeFailed, "silent corruption accepted: " + verr.Error()
		default:
			return crashcampaign.OutcomeVulnerable, verr.Error()
		}
	}
	return crashcampaign.OutcomeVerified, ""
}

func committedCounts(sys *core.System) []int {
	commits := sys.Commits()
	counts := make([]int, len(commits))
	for i, cs := range commits {
		counts[i] = len(cs)
	}
	return counts
}

// sameJSON reports whether two values encode to the same JSON bytes.
func sameJSON(a, b any) bool {
	x, errA := json.Marshal(a)
	y, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(x, y)
}
