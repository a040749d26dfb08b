// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark regenerates its experiment and reports the
// headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation at a reduced (shape-preserving) scale.
// Use cmd/proteus-bench for the full printed tables and -paperscale runs.
package repro_test

import (
	"context"
	"io"
	"strconv"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/ledger"
	"repro/internal/litmus"
	"repro/internal/logging"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchOpt is sized so each experiment completes in seconds while keeping
// realistic per-transaction behaviour (full Table 2 initialization
// footprints are too slow to rebuild per benchmark here; InitScale 4
// keeps multi-megabyte structures).
func benchOpt() experiments.Options {
	return experiments.Options{Threads: 4, SimScale: 100, InitScale: 4, Seed: 42}
}

// benchSuite builds a fresh suite — and therefore a fresh engine cache —
// per benchmark iteration, so b.N > 1 iterations re-simulate instead of
// replaying memoized results.
func benchSuite() *experiments.Suite {
	return experiments.NewSuite(context.Background(), benchOpt(), engine.New(engine.Config{}))
}

func reportGeomean(b *testing.B, get func() (float64, error), unit string) {
	b.Helper()
	var v float64
	for i := 0; i < b.N; i++ {
		x, err := get()
		if err != nil {
			b.Fatal(err)
		}
		v = x
	}
	b.ReportMetric(v, unit)
}

// BenchmarkFigure6 regenerates the NVMM speedup comparison; the metric is
// the Proteus geomean speedup over PMEM (paper: 1.46).
func BenchmarkFigure6(b *testing.B) {
	reportGeomean(b, func() (float64, error) {
		tab, err := benchSuite().Figure6()
		if err != nil {
			return 0, err
		}
		b.Logf("\n%s", tab)
		return tab.Get("geomean", "Proteus"), nil
	}, "proteus-speedup")
}

// BenchmarkFigure7 regenerates the front-end stall comparison; the metric
// is ATOM's stalls normalized to the ideal case (paper: ~1.16).
func BenchmarkFigure7(b *testing.B) {
	reportGeomean(b, func() (float64, error) {
		tab, err := benchSuite().Figure7()
		if err != nil {
			return 0, err
		}
		b.Logf("\n%s", tab)
		return tab.Get("geomean", "ATOM"), nil
	}, "atom-stalls-vs-ideal")
}

// BenchmarkFigure8 regenerates the NVMM write comparison; the metric is
// ATOM's write amplification over the ideal case (paper: ~3.4).
func BenchmarkFigure8(b *testing.B) {
	reportGeomean(b, func() (float64, error) {
		tab, err := benchSuite().Figure8()
		if err != nil {
			return 0, err
		}
		b.Logf("\n%s", tab)
		return tab.Get("geomean", "ATOM"), nil
	}, "atom-write-amp")
}

// BenchmarkFigure9 regenerates the slow-NVM study; the metric is the
// Proteus geomean speedup (paper: 1.49).
func BenchmarkFigure9(b *testing.B) {
	reportGeomean(b, func() (float64, error) {
		tab, err := benchSuite().Figure9()
		if err != nil {
			return 0, err
		}
		b.Logf("\n%s", tab)
		return tab.Get("geomean", "Proteus"), nil
	}, "proteus-speedup-slownvm")
}

// BenchmarkFigure10 regenerates the DRAM study; the metric is the Proteus
// geomean speedup (paper: 1.47).
func BenchmarkFigure10(b *testing.B) {
	reportGeomean(b, func() (float64, error) {
		tab, err := benchSuite().Figure10()
		if err != nil {
			return 0, err
		}
		b.Logf("\n%s", tab)
		return tab.Get("geomean", "Proteus"), nil
	}, "proteus-speedup-dram")
}

// BenchmarkFigure11 regenerates the LogQ sweep; the metric is the geomean
// speedup gained growing the LogQ from 1 to 64 entries.
func BenchmarkFigure11(b *testing.B) {
	reportGeomean(b, func() (float64, error) {
		tab, err := benchSuite().Figure11()
		if err != nil {
			return 0, err
		}
		b.Logf("\n%s", tab)
		return tab.Get("geomean", "LogQ=64") - tab.Get("geomean", "LogQ=1"), nil
	}, "logq-1-to-64-gain")
}

// BenchmarkFigure12 regenerates the LPQ sweep; the metric is the geomean
// speedup at the paper's chosen 256-entry LPQ.
func BenchmarkFigure12(b *testing.B) {
	reportGeomean(b, func() (float64, error) {
		tab, err := benchSuite().Figure12()
		if err != nil {
			return 0, err
		}
		b.Logf("\n%s", tab)
		return tab.Get("geomean", "LPQ=256"), nil
	}, "speedup-at-lpq256")
}

// BenchmarkTable3 regenerates the large-transaction study; the metric is
// Proteus's speedup at 8192-element transactions (paper: 1.24 vs ideal
// 1.27).
func BenchmarkTable3(b *testing.B) {
	reportGeomean(b, func() (float64, error) {
		res, err := benchSuite().Table3()
		if err != nil {
			return 0, err
		}
		b.Logf("\n%s", res.Speedups)
		return res.Speedups.Get("8192", "Proteus"), nil
	}, "proteus-speedup-8192")
}

// BenchmarkTable4 regenerates the LLT miss rates; the metric is the QE
// miss rate (paper: 22.5%).
func BenchmarkTable4(b *testing.B) {
	reportGeomean(b, func() (float64, error) {
		tab, err := benchSuite().Table4()
		if err != nil {
			return 0, err
		}
		b.Logf("\n%s", tab)
		return tab.Get(workload.Queue.Abbrev(), "miss rate"), nil
	}, "qe-llt-missrate-pct")
}

// BenchmarkSimulatorThroughput measures raw simulation speed (cycles
// simulated per wall second) on one Proteus run — the cost of the
// substrate itself.
func BenchmarkSimulatorThroughput(b *testing.B) {
	reportGeomean(b, func() (float64, error) {
		tab, err := benchSuite().Figure6()
		_ = tab
		return float64(b.Elapsed().Milliseconds()), err
	}, "ms-per-suite")
}

// BenchmarkEngineSerialVsParallel runs Figure 6's 36-job matrix once on a
// single worker and once on GOMAXPROCS workers; the metric is the parallel
// speedup. Tables are asserted byte-identical in either mode by
// TestEngineDeterminismAcrossWorkers.
func BenchmarkEngineSerialVsParallel(b *testing.B) {
	reportGeomean(b, func() (float64, error) {
		time1, err := timeSuite(1)
		if err != nil {
			return 0, err
		}
		timeN, err := timeSuite(0) // 0 = GOMAXPROCS
		if err != nil {
			return 0, err
		}
		return time1 / timeN, nil
	}, "parallel-speedup")
}

func timeSuite(workers int) (float64, error) {
	s := experiments.NewSuite(context.Background(), benchOpt(), engine.New(engine.Config{Workers: workers}))
	start := time.Now()
	if _, err := s.Figure6(); err != nil {
		return 0, err
	}
	return float64(time.Since(start).Nanoseconds()), nil
}

// BenchmarkAblationPersistency compares §2.1's persistency models on the
// software baseline; the metric is strict persistency's geomean slowdown
// over the durable-transaction model.
func BenchmarkAblationPersistency(b *testing.B) {
	reportGeomean(b, func() (float64, error) {
		tab, err := benchSuite().PersistencyModels()
		if err != nil {
			return 0, err
		}
		b.Logf("\n%s", tab)
		return tab.Get("geomean", "strict"), nil
	}, "strict-slowdown")
}

// BenchmarkAblationStaticElim compares the hardware LLT against
// compiler-side duplicate-log elimination (§4.2); the metric is the
// fraction of log operations a perfect compiler still has to emit.
func BenchmarkAblationStaticElim(b *testing.B) {
	reportGeomean(b, func() (float64, error) {
		tab, err := benchSuite().StaticVsDynamicFiltering()
		if err != nil {
			return 0, err
		}
		b.Logf("\n%s", tab)
		return tab.Get("geomean", "logops-emitted-ratio"), nil
	}, "static-emit-ratio")
}

// BenchmarkAblationATOMInFlight sweeps ATOM's log-request pipelining; the
// metric is ATOM's geomean speedup at the deepest pipeline, which still
// trails Proteus (the LogQ decoupling, not request bandwidth, is the
// difference).
func BenchmarkAblationATOMInFlight(b *testing.B) {
	reportGeomean(b, func() (float64, error) {
		tab, err := benchSuite().ATOMInFlightSweep()
		if err != nil {
			return 0, err
		}
		b.Logf("\n%s", tab)
		return tab.Get("geomean", "inflight=16"), nil
	}, "atom-speedup-deep-pipe")
}

// BenchmarkAblationWPQ sweeps the WPQ capacity under the software
// baseline; the metric is the slowdown of a 16-entry WPQ relative to 128.
func BenchmarkAblationWPQ(b *testing.B) {
	reportGeomean(b, func() (float64, error) {
		tab, err := benchSuite().WPQSweep()
		if err != nil {
			return 0, err
		}
		b.Logf("\n%s", tab)
		return tab.Get("geomean", "WPQ=16"), nil
	}, "wpq16-slowdown")
}

// BenchmarkAblationWPQDrain sweeps the WPQ drain-age threshold under the
// software baseline; the metric is the geomean slowdown of an eager
// (age=8) drain policy relative to the default age of 48.
func BenchmarkAblationWPQDrain(b *testing.B) {
	reportGeomean(b, func() (float64, error) {
		tab, err := benchSuite().WPQDrainSweep()
		if err != nil {
			return 0, err
		}
		b.Logf("\n%s", tab)
		return tab.Get("geomean", "age=8"), nil
	}, "eager-drain-slowdown")
}

// aluSystem builds a machine whose cores grind one enormous ALU op: the
// Step loop runs indefinitely without touching memory or allocating,
// isolating the per-cycle cost the trace layer adds.
func aluSystem(tb testing.TB, cores int) *core.System {
	tb.Helper()
	cfg := config.Default()
	cfg.Cores = cores
	traces := make([]*isa.Trace, cores)
	for i := range traces {
		traces[i] = &isa.Trace{Ops: []isa.Op{{Kind: isa.Alu, Val: 1 << 30}}}
	}
	sys, err := core.NewSystem(cfg, core.Proteus, traces, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// TestNilTracerAddsNoAllocations is the observability layer's zero-cost
// guard: with no tracer attached (the default), the simulation loop must
// not allocate — the disabled path is one pointer nil-check per cycle.
func TestNilTracerAddsNoAllocations(t *testing.T) {
	sys := aluSystem(t, 4)
	sys.Step(10_000) // warm up any lazy internal state
	if allocs := testing.AllocsPerRun(50, func() { sys.Step(2_000) }); allocs != 0 {
		t.Fatalf("untraced Step allocates %.1f times per 2k cycles, want 0", allocs)
	}
}

// BenchmarkStepNilTracer measures the per-cycle cost of the simulation
// loop with tracing disabled — the baseline BenchmarkStepTraced compares
// against.
func BenchmarkStepNilTracer(b *testing.B) {
	sys := aluSystem(b, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Step(1_000)
	}
}

// BenchmarkStepTraced is the same loop with a JSONL tracer sampling every
// DefaultEpoch cycles into a discarded stream: the difference to
// BenchmarkStepNilTracer is the layer's total enabled overhead.
func BenchmarkStepTraced(b *testing.B) {
	sys := aluSystem(b, 4)
	tr, err := trace.NewJSONLTracer(io.Discard, trace.Meta{Label: "bench", Cores: 4}, 0)
	if err != nil {
		b.Fatal(err)
	}
	sys.SetTracer(tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Step(1_000)
	}
	b.StopTimer()
	if err := tr.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkNewSystemLitmus measures the fixed cost of one litmus case's
// machine: assembling a System at the litmus configuration and releasing
// it. With cache arrays recycled through Release, bytes/op is the
// per-System bookkeeping, not the ~12.5 MB of L1/L2/L3 ways.
func BenchmarkNewSystemLitmus(b *testing.B) {
	cfg := litmus.SimConfig(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := core.NewSystem(cfg, core.Proteus, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		sys.Release()
	}
}

// steadySystem builds a machine running a real Table-2 queue workload
// under the scheme and steps it past warm-up, so every ring, pool, queue
// and stats buffer has hit its high-water mark before measurement begins.
// A streamed machine's cores generate their ops as they go, the way
// engine jobs run; otherwise they read traces generated up front.
func steadySystem(tb testing.TB, scheme core.Scheme, streamed bool) *core.System {
	tb.Helper()
	p := workload.Queue.DefaultParams(1)
	p.InitOps /= 8 // keep the build cheap; SimOps full-length so the run outlasts the bench
	w, err := workload.Build(workload.Queue, p)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := config.Default()
	cfg.Cores = p.Threads
	var sys *core.System
	if streamed {
		streams, err := logging.NewStreams(w, scheme, cfg, logging.Options{})
		if err != nil {
			tb.Fatal(err)
		}
		srcs := make([]cpu.Source, len(streams))
		for i, s := range streams {
			srcs[i] = s
		}
		sys, err = core.NewStreamedSystem(cfg, scheme, srcs, w.InitImage)
		if err != nil {
			tb.Fatal(err)
		}
	} else {
		traces, err := logging.Generate(w, scheme, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		sys, err = core.NewSystem(cfg, scheme, traces, w.InitImage)
		if err != nil {
			tb.Fatal(err)
		}
	}
	sys.Step(10_000)
	if sys.Finished() {
		tb.Fatal("workload finished during warm-up; steady state never reached")
	}
	return sys
}

// TestStepSteadyStateAllocFree asserts the hot loop's headline property:
// once warm, advancing the machine — cores, caches, memory controller,
// NVM timing, logging — performs zero heap allocations per Step.
func TestStepSteadyStateAllocFree(t *testing.T) {
	sys := steadySystem(t, core.Proteus, false)
	if allocs := testing.AllocsPerRun(20, func() { sys.Step(2_000) }); allocs != 0 {
		t.Fatalf("steady-state Step allocates %.1f times per 2k cycles, want 0", allocs)
	}
	if sys.Finished() {
		t.Fatal("workload finished during measurement; shorten the measured spans")
	}
}

// TestStreamedStepSteadyStateAllocFree is the same guard for streamed
// machines, whose Step also generates each transaction as a core reaches
// it: once warm, generation reuses its window and scratch. PMEM and
// PMEM+pcommit are left out because their generator folds every committed
// transaction's writes into a committed-state overlay map (the pre-images
// of later undo-log entries), which grows with the run's write footprint.
func TestStreamedStepSteadyStateAllocFree(t *testing.T) {
	for _, scheme := range []core.Scheme{core.Proteus, core.PMEMNoLog} {
		t.Run(scheme.String(), func(t *testing.T) {
			sys := steadySystem(t, scheme, true)
			if allocs := testing.AllocsPerRun(20, func() { sys.Step(2_000) }); allocs != 0 {
				t.Fatalf("steady-state streamed Step allocates %.1f times per 2k cycles, want 0", allocs)
			}
			if sys.Finished() {
				t.Fatal("workload finished during measurement; shorten the measured spans")
			}
		})
	}
}

// BenchmarkStepSteadyState measures the per-cycle cost of the full
// machine under a real logging workload (queue benchmark, Proteus
// scheme), mid-run. Compare against BenchmarkStepNilTracer, which bounds
// the same loop from below with pure ALU work.
func BenchmarkStepSteadyState(b *testing.B) {
	sys := steadySystem(b, core.Proteus, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sys.Finished() {
			b.StopTimer()
			sys = steadySystem(b, core.Proteus, false)
			b.StartTimer()
		}
		sys.Step(2_000)
	}
}

// BenchmarkWorkloadBuild measures workload.Build, one sub-benchmark per
// Table 2 benchmark, at the full Table 2 initialization footprint with
// few timed operations (2 threads, InitScale 1, SimScale 1000): the
// functional initialization through the heap and the NVM store dominates.
// Run with -benchmem; bytes/op is the build's allocation.
func BenchmarkWorkloadBuild(b *testing.B) {
	for _, k := range workload.Table2 {
		p := k.DefaultParams(1)
		p.Threads = 2
		p.SimOps = max(p.SimOps/1000, 8)
		b.Run(k.Abbrev(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := workload.Build(k, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGenerate measures micro-op generation, one sub-benchmark per
// scheme, over one queue workload built once at Figure 6's benchmark
// shape (2 threads, SimScale 100, InitScale 4). Run with -benchmem:
// bytes/op is what generating one workload's traces allocates.
func BenchmarkGenerate(b *testing.B) {
	p := workload.Queue.DefaultParams(1)
	p.Threads = 2
	p.SimOps /= 100
	p.InitOps /= 4
	p.SSItems /= 4
	w, err := workload.Build(workload.Queue, p)
	if err != nil {
		b.Fatal(err)
	}
	cfg := config.Default()
	cfg.Cores = p.Threads
	for _, s := range core.Schemes {
		b.Run(s.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := logging.GenerateOpts(w, s, cfg, logging.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLitmusCase measures one litmus case end to end on one worker:
// compile the first curated program, generate its Proteus traces, step
// the machine cycle by cycle taking the persist signature each cycle, and
// inject every fault model at each distinct persist state. The litmus
// sweep is thousands of such cases.
func BenchmarkLitmusCase(b *testing.B) {
	cfg := litmus.Config{
		Programs: litmus.Curated()[:1],
		Schemes:  []core.Scheme{core.Proteus},
		Workers:  1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := litmus.Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Totals.Divergences != 0 {
			b.Fatalf("%d divergences", rep.Totals.Divergences)
		}
	}
}

// benchLedger opens a fresh ledger in a per-call temp dir. The
// admission benchmarks rotate to a new one periodically so the
// append-rewrites-whole-file cost stays representative of a live
// serving ledger instead of growing without bound with b.N.
func benchLedger(b *testing.B) *ledger.Ledger {
	b.Helper()
	lg, err := ledger.Open(ledger.DefaultPath(b.TempDir()), nil)
	if err != nil {
		b.Fatal(err)
	}
	return lg
}

func benchLeaf(i int) ledger.Leaf {
	return ledger.Leaf{
		Kind:     ledger.LeafAdmission,
		Key:      "0123456789abcdef",
		ConfigFP: "fedcba9876543210",
		Scheme:   "Proteus",
		Workload: "QE",
		Revision: "bench",
		Digest:   strconv.Itoa(i),
	}
}

// BenchmarkAdmissionBatched measures serve-path admission throughput
// with the batcher in front of the ledger: Submit is a slice append
// plus two non-blocking signals, and one fsynced chain rewrite seals
// 64 admissions. Compare BenchmarkAdmissionUnbatched — the same leaves
// sealed one record each — for the batching win.
func BenchmarkAdmissionBatched(b *testing.B) {
	const rotate = 1 << 14
	lg := benchLedger(b)
	bt := ledger.NewBatcher(lg, 64, 2*time.Millisecond)
	ctx := context.Background()
	tickets := make([]*ledger.Ticket, 0, min(b.N, rotate))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%rotate == 0 {
			drainTickets(b, ctx, tickets)
			tickets = tickets[:0]
			bt.Close()
			lg = benchLedger(b)
			bt = ledger.NewBatcher(lg, 64, 2*time.Millisecond)
		}
		tickets = append(tickets, bt.Submit(benchLeaf(i)))
	}
	drainTickets(b, ctx, tickets)
	b.StopTimer()
	bt.Close()
}

func drainTickets(b *testing.B, ctx context.Context, tickets []*ledger.Ticket) {
	b.Helper()
	for _, tk := range tickets {
		if _, err := tk.Wait(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdmissionUnbatched seals one record per admission — the
// naive design the batcher replaces: every admission pays a full
// Merkle build, chain rewrite, fsync and read-back of its own.
func BenchmarkAdmissionUnbatched(b *testing.B) {
	const rotate = 1 << 9
	lg := benchLedger(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%rotate == 0 {
			lg = benchLedger(b)
		}
		if _, err := lg.Append([]ledger.Leaf{benchLeaf(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLLTSweep reports the QE miss rate at a 256-entry LLT.
func BenchmarkAblationLLTSweep(b *testing.B) {
	reportGeomean(b, func() (float64, error) {
		tab, err := benchSuite().LLTSweep()
		if err != nil {
			return 0, err
		}
		b.Logf("\n%s", tab)
		return tab.Get(workload.Queue.Abbrev(), "LLT=256"), nil
	}, "qe-llt256-missrate")
}
