package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/crashcampaign"
	"repro/internal/litmus"
	"repro/internal/logging"
	"repro/internal/recovery"
)

// litmusWorkload sweeps litmus programs × failure-safe schemes: every
// distinct persist state of every run under every fault model, judged
// against the schemes' ordering axioms.
type litmusWorkload struct {
	programs []litmus.Program // nil: the full grammar
	workers  int
}

func litmusSweep() litmusWorkload { return litmusWorkload{workers: 2} }

type litmusRep struct {
	cfg    litmus.Config
	report *litmus.Report
}

func (w litmusWorkload) newRep(seed int64) *litmusRep {
	progs := w.programs
	if progs == nil {
		progs = litmus.Enumerate()
	}
	return &litmusRep{cfg: litmus.Config{Programs: progs, Seed: seed, Workers: w.workers}}
}

func (w litmusWorkload) setup(_ context.Context, env *env) (rep, error) {
	return w.newRep(env.seed), nil
}

func (r *litmusRep) run(ctx context.Context) error {
	rep, err := litmus.Run(ctx, r.cfg)
	r.report = rep
	return err
}

func (r *litmusRep) check() outcome {
	o := outcome{ops: r.report.Totals.Injections, failed: r.report.Totals.Failed}
	for _, c := range r.report.Cases {
		for _, d := range c.Divergences {
			o.failures = append(o.failures, fmt.Sprintf("litmus %s/%s %s@%d diverges: %s", c.Program, c.Scheme, d.Fault, d.Cycle, d.Detail))
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

func (r *litmusRep) close() error { return nil }

// trace runs the rep as measured; every case through litmus.Run alone,
// timed, on one worker; and a re-enactment of each case through the layers
// it calls — compile, generate, assemble, step cycle by cycle, and inject
// and recover at every distinct persist state — which must visit exactly
// the states and injections the report counts.
func (w litmusWorkload) trace(ctx context.Context, env *env, tr *tracer) (*traceResult, error) {
	res := newTraceResult()
	m := res.metrics

	measured := w.newRep(env.seed)
	if err := measured.run(ctx); err != nil {
		return nil, err
	}
	report := measured.report
	m["litmus.injections"] = float64(report.Totals.Injections)
	m["litmus.divergences"] = float64(report.Totals.Divergences)
	for _, c := range report.Cases {
		m["litmus.persist_states"] += float64(c.States)
	}

	runtime.GC()
	cfg := measured.cfg
	cfg.Workers = 1
	var caseMS []float64
	i := 0
	for _, prog := range cfg.Programs {
		for _, scheme := range report.Suite.Schemes {
			sc, err := core.SchemeByName(scheme)
			if err != nil {
				return nil, err
			}
			one := cfg
			one.Programs, one.Schemes = []litmus.Program{prog}, []core.Scheme{sc}
			s := tr.begin(0, layerLitmus, spanCase, false)
			got, err := litmus.Run(ctx, one)
			d := s.end()
			if err != nil {
				return nil, err
			}
			caseMS = append(caseMS, float64(d)/1e6)
			res.attempted++
			if i >= len(report.Cases) || !sameJSON(got.Cases[0], report.Cases[i]) {
				res.fail("case %s/%s: single-case report differs from the sweep's", prog, scheme)
			}
			i++
		}
	}
	m["litmus.case_p50_ms"] = quantile(caseMS, 0.5)
	m["litmus.case_p99_ms"] = quantile(caseMS, 0.99)

	reenact(m, tr, res, func(tr *tracer, res *traceResult) simCounts {
		var counts simCounts
		for _, c := range report.Cases {
			res.attempted++
			if err := reenactCase(tr, cfg.Seed, c, crashcampaign.AllFaults, &counts); err != nil {
				res.fail("case %s/%s: %v", c.Program, c.Scheme, err)
			}
		}
		return counts
	})
	return res, nil
}

// persistKey identifies a distinct persist state the way the sweep
// deduplicates them: the persist signature plus the committed counts.
type persistKey struct {
	sig       uint64
	committed [2]int
}

// reenactCase runs one case through the layers litmus.Run calls and
// checks that it visits the states and injections the report counts. The
// axiom check itself is internal to the litmus package, so outcomes are
// compared by count, not one by one.
func reenactCase(tr *tracer, seed int64, c litmus.CaseReport, faults []crashcampaign.Fault, counts *simCounts) error {
	prog, err := litmus.Parse(c.Program)
	if err != nil {
		return err
	}
	scheme, err := core.SchemeByName(c.Scheme)
	if err != nil {
		return err
	}
	job := tr.begin(0, layerBench, spanJob, false)
	defer job.end()
	s := tr.begin(job.id(), layerLitmus, spanCompile, true)
	compiled, err := prog.Compile()
	s.end()
	if err != nil {
		return err
	}
	threads := len(prog.Threads)
	cfg := litmus.SimConfig(threads)
	s = tr.begin(job.id(), layerLogging, spanGenerate, true)
	traces, err := logging.GenerateOpts(compiled.WL, scheme, cfg, logging.Options{})
	s.end()
	if err != nil {
		return err
	}
	counts.addTraces(traces)
	s = tr.begin(job.id(), layerCore, spanNewSystem, true)
	sys, err := core.NewSystem(cfg, scheme, traces, compiled.WL.InitImage)
	s.end()
	if err != nil {
		return err
	}
	step := tr.begin(job.id(), layerCore, spanStep, false)
	seen := map[persistKey]bool{}
	injections := 0
	for !sys.Finished() {
		sys.Step(1)
		key := persistKey{sig: sys.PersistSig()}
		committed := committedCounts(sys)
		copy(key.committed[:], committed)
		if seen[key] {
			continue
		}
		seen[key] = true
		for _, f := range faults {
			if !f.AppliesTo(scheme) {
				continue
			}
			inj := crashcampaign.Injection{Fault: f, Seed: crashcampaign.InjectionSeed(seed, c.Program, c.Scheme, f.String(), fmt.Sprint(sys.Cycle()))}
			a := tr.begin(step.id(), layerCrashCampaign, spanApply, false)
			img := inj.Apply(sys, threads)
			a.end()
			r := tr.begin(step.id(), layerRecovery, spanRecover, false)
			_, _ = recovery.Recover(img, scheme, threads) // judged by count only
			r.end()
			injections++
		}
	}
	step.end()
	counts.addReport(sys.Report())
	if len(seen) != c.States || injections != c.Injections || sys.Cycle() != c.TotalCycles {
		return fmt.Errorf("re-enactment visits %d states, %d injections, %d cycles; report has %d, %d, %d",
			len(seen), injections, sys.Cycle(), c.States, c.Injections, c.TotalCycles)
	}
	return nil
}
