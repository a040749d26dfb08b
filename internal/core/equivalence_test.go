package core_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/logging"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// pairResult is everything observable from one run that the fast stepper
// must reproduce byte-for-byte.
type pairResult struct {
	rep     *stats.Report
	commits [][]cpu.Commit
	trace   []byte
	image   []byte
}

// runWith executes the workload under one stepper, capturing the report,
// commits, JSONL trace, and final crash image. A run error (e.g. the cycle
// budget expiring) is returned, not fatal: the fuzz target must tolerate
// configurations where the modeled machine genuinely cannot progress.
func runWith(t testing.TB, cfg config.Config, scheme core.Scheme, traces []*isa.Trace, w *workload.Workload, st core.Stepper, epoch, maxCycles uint64) (*pairResult, error) {
	t.Helper()
	sys, err := core.NewSystem(cfg, scheme, traces, w.InitImage)
	if err != nil {
		t.Fatal(err)
	}
	return observeRun(t, sys, cfg, st, epoch, maxCycles)
}

// runStreamed is runWith with every core fed by a stream (the streams
// GenerateOpts drains), built as every simulated machine is. It also
// returns the streams, exhausted once the run finished.
func runStreamed(t testing.TB, cfg config.Config, scheme core.Scheme, opts logging.Options, w *workload.Workload, st core.Stepper, epoch, maxCycles uint64) (*pairResult, []*logging.Stream, error) {
	t.Helper()
	sys, streams, err := logging.NewSystem(w, scheme, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := observeRun(t, sys, cfg, st, epoch, maxCycles)
	return res, streams, err
}

func observeRun(t testing.TB, sys *core.System, cfg config.Config, st core.Stepper, epoch, maxCycles uint64) (*pairResult, error) {
	t.Helper()
	sys.SetStepper(st)
	var buf bytes.Buffer
	if epoch > 0 {
		tr, err := trace.NewJSONLTracer(&buf, trace.Meta{Label: "equiv", Cores: cfg.Cores}, epoch)
		if err != nil {
			t.Fatal(err)
		}
		sys.SetTracer(tr)
	}
	rep, err := sys.Run(maxCycles)
	if err != nil {
		return nil, err
	}
	var img bytes.Buffer
	if err := sys.CrashImage().Serialize(&img); err != nil {
		t.Fatal(err)
	}
	return &pairResult{rep: rep, commits: sys.Commits(), trace: buf.Bytes(), image: img.Bytes()}, nil
}

func comparePair(t *testing.T, ref, fast *pairResult) {
	t.Helper()
	if !reflect.DeepEqual(ref.rep, fast.rep) {
		t.Errorf("report diverges:\nreference: %+v\nfast:      %+v", ref.rep, fast.rep)
	}
	if !reflect.DeepEqual(ref.commits, fast.commits) {
		t.Errorf("commits diverge")
	}
	if !bytes.Equal(ref.trace, fast.trace) {
		t.Errorf("JSONL traces diverge (%d vs %d bytes)", len(ref.trace), len(fast.trace))
	}
	if !bytes.Equal(ref.image, fast.image) {
		t.Errorf("crash images diverge (%d vs %d bytes)", len(ref.image), len(fast.image))
	}
}

// TestFastForwardEquivalence cross-checks the fast stepper against the
// reference stepper for every scheme x Table-2 benchmark: byte-identical
// stats.Report, commit streams, JSONL traces, and final crash images.
func TestFastForwardEquivalence(t *testing.T) {
	for _, kind := range workload.Table2 {
		p := kind.DefaultParams(2000)
		p.Threads = 2
		w, err := workload.Build(kind, p)
		if err != nil {
			t.Fatal(err)
		}
		cfg := config.Default()
		cfg.Cores = p.Threads
		for _, scheme := range core.Schemes {
			kind, scheme := kind, scheme
			t.Run(kind.String()+"/"+scheme.String(), func(t *testing.T) {
				t.Parallel()
				traces, err := logging.Generate(w, scheme, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := runWith(t, cfg, scheme, traces, w, core.StepperReference, 2000, 500_000_000)
				if err != nil {
					t.Fatal(err)
				}
				fast, err := runWith(t, cfg, scheme, traces, w, core.StepperFast, 2000, 500_000_000)
				if err != nil {
					t.Fatal(err)
				}
				comparePair(t, ref, fast)
			})
		}
	}
}

// TestFastForwardCrashPointEquivalence mimics the crash campaign's usage:
// both steppers are single-stepped to the same exact mid-run cycles and
// must expose byte-identical crash images there.
func TestFastForwardCrashPointEquivalence(t *testing.T) {
	p := workload.Queue.DefaultParams(2000)
	p.Threads = 2
	w, err := workload.Build(workload.Queue, p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	cfg.Cores = p.Threads
	for _, scheme := range []core.Scheme{core.PMEM, core.ATOM, core.Proteus} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			traces, err := logging.Generate(w, scheme, cfg)
			if err != nil {
				t.Fatal(err)
			}
			mk := func(st core.Stepper) *core.System {
				sys, err := core.NewSystem(cfg, scheme, traces, w.InitImage)
				if err != nil {
					t.Fatal(err)
				}
				sys.SetStepper(st)
				return sys
			}
			ref, fast := mk(core.StepperReference), mk(core.StepperFast)
			for _, cycle := range []uint64{137, 1000, 2503, 10_000, 40_000} {
				ref.Step(cycle - ref.Cycle())
				fast.Step(cycle - fast.Cycle())
				if ref.Cycle() != fast.Cycle() {
					t.Fatalf("cycle mismatch at target %d: ref %d fast %d", cycle, ref.Cycle(), fast.Cycle())
				}
				var ri, fi bytes.Buffer
				if err := ref.CrashImage().Serialize(&ri); err != nil {
					t.Fatal(err)
				}
				if err := fast.CrashImage().Serialize(&fi); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(ri.Bytes(), fi.Bytes()) {
					t.Fatalf("crash image diverges at cycle %d", cycle)
				}
				if ref.Finished() != fast.Finished() {
					t.Fatalf("finished flag diverges at cycle %d", cycle)
				}
			}
		})
	}
}

// FuzzFastForwardEquivalence fuzzes workload kind, scheme, queue depths
// and drain policy, and fails on any observable divergence between the
// reference and fast steppers.
func FuzzFastForwardEquivalence(f *testing.F) {
	// Seed corpus: one per scheme family, plus queue-pressure corners.
	f.Add(uint8(0), uint8(0), uint8(16), uint8(8), uint8(8), uint8(12))
	f.Add(uint8(1), uint8(3), uint8(4), uint8(2), uint8(1), uint8(10))
	f.Add(uint8(2), uint8(4), uint8(8), uint8(16), uint8(0), uint8(8))
	f.Add(uint8(3), uint8(5), uint8(2), uint8(1), uint8(4), uint8(8))
	f.Add(uint8(4), uint8(1), uint8(64), uint8(64), uint8(32), uint8(16))
	f.Add(uint8(5), uint8(2), uint8(3), uint8(4), uint8(2), uint8(8))
	f.Fuzz(func(t *testing.T, kindSel, schemeSel, wpq, lpq, drainHi, simOps uint8) {
		kind := workload.Table2[int(kindSel)%len(workload.Table2)]
		scheme := core.Schemes[int(schemeSel)%len(core.Schemes)]
		p := kind.DefaultParams(4000)
		p.Threads = 2
		p.SimOps = 4 + int(simOps)%16
		w, err := workload.Build(kind, p)
		if err != nil {
			t.Skip()
		}
		cfg := config.Default()
		cfg.Cores = p.Threads
		// WPQ >= 2: ATOM sends meta+data pairs and needs two free slots,
		// so a 1-entry WPQ livelocks the modeled machine by design.
		cfg.Mem.WPQ = 2 + int(wpq)%127
		cfg.Mem.LPQ = 1 + int(lpq)%128
		cfg.Mem.DrainHi = int(drainHi) % (cfg.Mem.WPQ + 1)
		if err := cfg.Validate(); err != nil {
			t.Skip()
		}
		traces, err := logging.Generate(w, scheme, cfg)
		if err != nil {
			t.Skip()
		}
		ref, err := runWith(t, cfg, scheme, traces, w, core.StepperReference, 1000, 20_000_000)
		if err != nil {
			// The modeled machine stalled under this configuration in the
			// reference stepper too: nothing to compare.
			t.Skip()
		}
		fast, err := runWith(t, cfg, scheme, traces, w, core.StepperFast, 1000, 20_000_000)
		if err != nil {
			t.Fatalf("fast stepper stalled where reference finished: %v", err)
		}
		streamed, _, err := runStreamed(t, cfg, scheme, logging.Options{}, w, core.StepperFast, 1000, 20_000_000)
		if err != nil {
			t.Fatalf("streamed fast run stalled where reference finished: %v", err)
		}
		for _, side := range []struct {
			name string
			got  *pairResult
		}{{"fast", fast}, {"streamed fast", streamed}} {
			if !reflect.DeepEqual(ref.rep, side.got.rep) {
				t.Fatalf("%s report diverges for %v/%v wpq=%d lpq=%d drainHi=%d",
					side.name, kind, scheme, cfg.Mem.WPQ, cfg.Mem.LPQ, cfg.Mem.DrainHi)
			}
			if !bytes.Equal(ref.trace, side.got.trace) {
				t.Fatalf("%s trace diverges for %v/%v", side.name, kind, scheme)
			}
			if !bytes.Equal(ref.image, side.got.image) {
				t.Fatalf("%s crash image diverges for %v/%v", side.name, kind, scheme)
			}
		}
	})
}

// TestStreamedMatchesMaterialized runs every scheme x Table-2 benchmark x
// {default options, strict persistency, static log elimination} under
// both steppers twice: with the cores fed by streams, and by the traces
// GenerateOpts drains from the same generator. The runs must agree
// byte for byte (report, commit streams, JSONL trace, final crash image),
// and the streams' log-flush count (what engine jobs report as
// EmittedLogFlushes) must equal the traces' Summarize().LogFlushes.
func TestStreamedMatchesMaterialized(t *testing.T) {
	optsSet := []logging.Options{{}, {Model: logging.ModelStrict}, {StaticLogElim: true}}
	for _, kind := range workload.Table2 {
		p := kind.DefaultParams(1000)
		p.Threads = 2
		w, err := workload.Build(kind, p)
		if err != nil {
			t.Fatal(err)
		}
		cfg := config.Default()
		cfg.Cores = p.Threads
		for _, scheme := range core.Schemes {
			for _, opts := range optsSet {
				for _, st := range []core.Stepper{core.StepperFast, core.StepperReference} {
					kind, scheme, opts, st := kind, scheme, opts, st
					name := fmt.Sprintf("%v/%v/%v/elim=%v/%v", kind, scheme, opts.Model, opts.StaticLogElim, st)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						traces, err := logging.GenerateOpts(w, scheme, cfg, opts)
						if err != nil {
							t.Fatal(err)
						}
						want, err := runWith(t, cfg, scheme, traces, w, st, 2000, 500_000_000)
						if err != nil {
							t.Fatal(err)
						}
						got, streams, err := runStreamed(t, cfg, scheme, opts, w, st, 2000, 500_000_000)
						if err != nil {
							t.Fatal(err)
						}
						comparePair(t, want, got)
						var wantFlushes, gotFlushes uint64
						for i := range traces {
							wantFlushes += uint64(traces[i].Summarize().LogFlushes)
							gotFlushes += streams[i].LogFlushes()
						}
						if gotFlushes != wantFlushes {
							t.Errorf("streams emitted %d log-flushes, traces hold %d", gotFlushes, wantFlushes)
						}
					})
				}
			}
		}
	}
}
