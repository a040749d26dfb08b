// Command proteus-bench regenerates the paper's tables and figures. By
// default it runs every experiment at the standard reduced scale
// (full Table 2 footprints, 1/25th of the timed operations); -fig selects
// one experiment and -paperscale runs the full Table 2 operation counts.
//
// All selected experiments share one simulation engine: their combined
// (workload, scheme, config) job matrix runs on -jobs parallel workers,
// and a tuple several figures have in common is simulated exactly once.
// Ctrl-C cancels the remaining jobs.
//
// Example:
//
//	proteus-bench                # everything, GOMAXPROCS workers
//	proteus-bench -fig 6         # just Figure 6
//	proteus-bench -fig t3        # just Table 3
//	proteus-bench -jobs 1        # serial (tables are identical either way)
//	proteus-bench -fig 6 -trace-dir traces  # one JSONL trace per job
//	proteus-bench -pprof localhost:6060     # live profiling of the harness
//
// With -csv every table printed is also written as fig<name>.csv
// (fig6.csv ... fig12.csv, figt3.csv, figt4.csv, figwpq.csv, ...), and
// the per-job metrics summary (cycles, wall time, failures) next to them
// as metrics.json. A job that exceeds -timeout fails alone: the remaining
// jobs complete and the affected table cells render as "-".
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/resultstore"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	var (
		fig        = flag.String("fig", "all", "experiment: 6-12, t3, t4, logq-delta, all; ablations: persistency, llt, static-elim, atom-inflight, wpq, wpq-drain, ablations")
		threads    = flag.Int("threads", 4, "worker threads / cores")
		simScale   = flag.Int("simscale", 25, "divide Table 2 timed operation counts by this")
		initScale  = flag.Int("initscale", 1, "divide Table 2 initialization counts by this (affects footprint)")
		paperScale = flag.Bool("paperscale", false, "run the full Table 2 operation counts (hours)")
		seed       = flag.Int64("seed", 42, "workload seed")
		csvDir     = flag.String("csv", "", "also write each table as CSV into this directory")
		jobs       = flag.Int("jobs", 0, "concurrent simulation jobs (0 = GOMAXPROCS)")
		jobTimeout = flag.Duration("timeout", 0, "wall-clock limit per simulation job, e.g. 10m (0 = none)")
		verbose    = flag.Bool("v", false, "log each simulation job to stderr as it finishes")
		traceDir   = flag.String("trace-dir", "", "write one epoch-sampled JSONL trace per simulation job into this directory")
		traceEpoch = flag.Uint64("trace-epoch", trace.DefaultEpoch, "cycles between trace samples (with -trace-dir)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address, e.g. localhost:6060")
		storeDir   = flag.String("store", "", "persistent result store directory: reruns of identical tuples are answered from disk")
	)
	var stepper core.Stepper
	flag.TextVar(&stepper, "stepper", core.StepperFast, "cycle-advance strategy: fast (event-driven fast-forward) or reference (per-cycle)")
	flag.Parse()
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			exitOn(err)
		}
	}
	if *pprofAddr != "" {
		go func() {
			fmt.Fprintf(os.Stderr, "proteus-bench: pprof on http://%s/debug/pprof/\n", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "proteus-bench: pprof:", err)
			}
		}()
	}

	opt := experiments.Options{Threads: *threads, SimScale: *simScale, InitScale: *initScale, Seed: *seed}
	if *paperScale {
		opt.SimScale = 1
		opt.InitScale = 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	econf := engine.Config{Workers: *jobs, JobTimeout: *jobTimeout, Stepper: stepper}
	if *storeDir != "" {
		st, err := resultstore.Open(*storeDir)
		exitOn(err)
		econf.Store = st
	}
	if *traceDir != "" {
		dir, epoch := *traceDir, *traceEpoch
		econf.Trace = func(j engine.Job) (*trace.Tracer, error) {
			f, err := os.Create(filepath.Join(dir, traceName(j)))
			if err != nil {
				return nil, err
			}
			meta := trace.Meta{Label: j.String(), Fingerprint: j.Fingerprint(), Cores: j.Config.Cores}
			tr, err := trace.NewJSONLTracer(f, meta, epoch)
			if err != nil {
				f.Close()
				return nil, err
			}
			return tr, nil
		}
	}
	if *verbose {
		econf.Progress = func(ev engine.Event) {
			if ev.Phase == engine.JobDone {
				status := "ok"
				if ev.Err != nil {
					status = ev.Err.Error()
				}
				fmt.Fprintf(os.Stderr, "proteus-bench: %v in %v (%s)\n", ev.Job, ev.Elapsed.Round(time.Millisecond), status)
			}
		}
	}
	eng := engine.New(econf)
	suite := experiments.NewSuite(ctx, opt, eng)
	start := time.Now()

	sel := strings.ToLower(*fig)
	want := func(name string) bool { return sel == "all" || sel == name }

	type tableExp struct {
		name string
		run  func() (*stats.Table, error)
	}
	exps := []tableExp{
		{"6", suite.Figure6},
		{"7", suite.Figure7},
		{"8", suite.Figure8},
		{"9", suite.Figure9},
		{"10", suite.Figure10},
		{"11", suite.Figure11},
		{"12", suite.Figure12},
	}
	// Ablations beyond the paper's own sensitivity study; selected by
	// name, or by "ablations" for the whole group (excluded from "all").
	ablations := []tableExp{
		{"persistency", suite.PersistencyModels},
		{"llt", suite.LLTSweep},
		{"static-elim", suite.StaticVsDynamicFiltering},
		{"atom-inflight", suite.ATOMInFlightSweep},
		{"wpq", suite.WPQSweep},
		{"wpq-drain", suite.WPQDrainSweep},
	}

	emit := func(name string, tab *stats.Table) {
		fmt.Println(tab)
		if *csvDir == "" {
			return
		}
		// Atomic publish: an interrupted run never leaves a truncated
		// table where a previous complete one stood.
		var buf bytes.Buffer
		exitOn(tab.WriteCSV(&buf))
		exitOn(resultstore.WriteFileAtomic(filepath.Join(*csvDir, "fig"+name+".csv"), buf.Bytes(), 0o644))
	}

	ran := false
	for _, e := range exps {
		if !want(e.name) {
			continue
		}
		ran = true
		out, err := e.run()
		exitOn(err)
		emit(e.name, out)
	}
	for _, e := range ablations {
		if sel != e.name && sel != "ablations" {
			continue
		}
		ran = true
		out, err := e.run()
		exitOn(err)
		emit(e.name, out)
	}

	if want("t3") {
		ran = true
		res, err := suite.Table3()
		exitOn(err)
		emit("t3", res.Speedups)
		fmt.Println("log entries per transaction (before LLT -> flushed to MC):")
		for _, n := range experiments.Table3Sizes {
			fmt.Printf("  %5d elements: %8.0f -> %8.0f\n", n, res.EntriesPerTxn[n], res.FlushedPerTxn[n])
		}
		fmt.Println()
	}
	if want("t4") {
		ran = true
		tab, err := suite.Table4()
		exitOn(err)
		emit("t4", tab)
	}
	if want("logq-delta") {
		ran = true
		nvmD, dramD, err := suite.LogQMemoryDelta()
		exitOn(err)
		fmt.Printf("LogQ 8->16 geomean speedup delta: %+.3f on NVM, %+.3f on DRAM (§7.2)\n\n", nvmD, dramD)
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "proteus-bench: unknown experiment %q\n", *fig)
		os.Exit(2)
	}
	if *csvDir != "" {
		// The per-job metrics summary rides along with the tables: one row
		// per executed simulation (cycles, wall time, failure if any).
		// Written atomically so an interrupted run never leaves truncated
		// JSON on disk.
		data, err := json.MarshalIndent(eng.Metrics(), "", "  ")
		exitOn(err)
		exitOn(resultstore.WriteFileAtomic(filepath.Join(*csvDir, "metrics.json"), append(data, '\n'), 0o644))
	}
	c := eng.Counters()
	fmt.Fprintf(os.Stderr, "proteus-bench: %d simulations (%d failed, %d duplicate requests served from cache, %d answered from result store, %d workloads built) in %v\n",
		c.Simulated, c.Failed, c.Deduped, c.StoreHits, c.WorkloadsBuilt, time.Since(start).Round(time.Millisecond))
	if c.Failed > 0 {
		for _, m := range eng.Metrics() {
			if m.Err != "" {
				fmt.Fprintf(os.Stderr, "proteus-bench: failed: %s (%s): %s\n", m.Job, m.Fingerprint, m.Err)
			}
		}
		// The tables already rendered with the survivors; the exit code
		// still has to tell CI something was missing.
		os.Exit(1)
	}
}

// traceName builds a per-job trace filename: the readable tuple plus the
// full-key fingerprint, which keeps jobs distinct even when they share a
// workload kind, scheme and config (e.g. the Table 3 size sweep).
func traceName(j engine.Job) string {
	r := strings.NewReplacer("/", "_", "+", "-", " ", "")
	return r.Replace(j.String()) + "-" + j.Fingerprint() + ".jsonl"
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "proteus-bench:", err)
		os.Exit(1)
	}
}
