// Command proteus-crash runs fault-injection crash campaigns: it sweeps
// crash points across every failure-safe scheme and Table 2 benchmark,
// injects power-failure fault models (clean cut, torn line writes, ADR
// loss, log-area bit corruption) at each point, runs recovery, verifies
// the oracle's durable-transaction property, and classifies every
// injection. Expected-safe combinations that fail are bisected to the
// earliest failing cycle, their fault masks shrunk, and dumped as
// ready-to-replay reproducer artifacts for proteus-recover -replay.
//
// The report is deterministic in (flags, -seed): the same sweep produces
// byte-identical report.json at any -jobs count.
//
// Examples:
//
//	proteus-crash -sweep 64 -faults torn,adrloss -jobs 8 -out report.json
//	proteus-crash -bench QE,SS -scheme PMEM,Proteus -sweep 16 -faults all -artifacts repro/
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/crashcampaign"
	"repro/internal/engine"
	"repro/internal/enum"
	"repro/internal/resultstore"
	"repro/internal/workload"
)

func main() {
	var (
		benches []workload.Kind
		schemes []core.Scheme
		faults  []crashcampaign.Fault
		mode    crashcampaign.MinimizeMode
		stepper core.Stepper
	)
	enum.ListVar(&benches, "bench", "all", "comma-separated benchmark abbrevs (QE, HM, SS, AT, BT, RT) or all", workload.ParseKinds)
	enum.ListVar(&schemes, "scheme", "all", "comma-separated schemes or all (the failure-safe set); PMEM+nolog may be named explicitly", core.ParseSchemes)
	enum.ListVar(&faults, "faults", "clean", "fault models to inject: clean, torn, adrloss, corrupt, all (clean is always included)", crashcampaign.ParseFaults)
	flag.Func("minimize", "which outcomes to minimize: failed, all, off (default failed)", func(s string) (err error) {
		mode, err = crashcampaign.MinimizeModeByName(s)
		return err
	})
	flag.TextVar(&stepper, "stepper", core.StepperFast, "cycle-advance strategy: fast (event-driven fast-forward) or reference (per-cycle)")
	var (
		sweep      = flag.Int("sweep", 64, "systematically spaced crash points per tuple")
		randPts    = flag.Int("rand", 0, "additional seeded-random crash points per tuple")
		jobs       = flag.Int("jobs", 0, "concurrent simulation jobs (0 = GOMAXPROCS)")
		jobTimeout = flag.Duration("timeout", 10*time.Minute, "wall-clock limit per tuple sweep (0 = none)")
		out        = flag.String("out", "report.json", "report destination (- = stdout)")
		artifacts  = flag.String("artifacts", "", "dump minimized-failure reproducers into this directory")
		threads    = flag.Int("threads", 2, "worker threads / cores")
		simOps     = flag.Int("simops", 40, "timed operations per thread")
		initOps    = flag.Int("initops", 256, "initialization operations per thread")
		wseed      = flag.Int64("wseed", 11, "workload seed")
		seed       = flag.Int64("seed", 1, "campaign seed: crash-point choice and per-line fault randomness")
		storeDir   = flag.String("store", "", "persistent result store directory for the underlying simulations")
		verbose    = flag.Bool("v", false, "log engine job activity to stderr")
	)
	flag.Parse()

	engCfg := engine.Config{Workers: *jobs, JobTimeout: *jobTimeout, Stepper: stepper}
	if *storeDir != "" {
		st, err := resultstore.Open(*storeDir)
		exitOn(err)
		engCfg.Store = st
	}
	if *verbose {
		engCfg.Progress = func(ev engine.Event) {
			if ev.Phase == engine.JobDone {
				fmt.Fprintf(os.Stderr, "[engine] %v %v err=%v (%v)\n", ev.Job, ev.Phase, ev.Err, ev.Elapsed.Round(time.Millisecond))
			}
		}
	}

	camp := crashcampaign.Config{
		Benches: benches,
		Schemes: schemes,
		Params: workload.Params{Threads: *threads, InitOps: *initOps, SimOps: *simOps, Seed: *wseed,
			SSItems: 256, SSStrSize: 256, ListNodes: 4, ListElems: 64},
		Sim:         config.Default(),
		Stepper:     stepper,
		Sweep:       *sweep,
		Rand:        *randPts,
		Faults:      faults,
		Seed:        *seed,
		Minimize:    mode,
		ArtifactDir: *artifacts,
		Engine:      engine.New(engCfg),
	}

	start := time.Now()
	rep, err := crashcampaign.Run(context.Background(), camp)
	exitOn(err)

	if *out == "-" {
		exitOn(rep.WriteJSON(os.Stdout))
	} else {
		// Buffer and publish atomically: a crash mid-write never clobbers
		// the previous complete report.
		var buf bytes.Buffer
		exitOn(rep.WriteJSON(&buf))
		exitOn(resultstore.WriteFileAtomic(*out, buf.Bytes(), 0o644))
	}

	fmt.Fprintf(os.Stderr, "campaign: %d tuples, %d injections in %v\n",
		rep.Totals.Tuples, rep.Totals.Injections, time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(os.Stderr, "  verified %d, detected %d, vulnerable %d, failed %d (minimized %d)\n",
		rep.Totals.Verified, rep.Totals.Detected, rep.Totals.Vulnerable, rep.Totals.Failed, rep.Totals.Minimized)
	for _, tu := range rep.Tuples {
		if tu.Failed == 0 {
			continue
		}
		for _, ir := range tu.Injections {
			if ir.Outcome != crashcampaign.OutcomeFailed {
				continue
			}
			fmt.Fprintf(os.Stderr, "  FAILED %s/%s %s@%d: %s\n", tu.Bench, tu.Scheme, ir.Fault, ir.Cycle, ir.Detail)
			if ir.Minimized != nil && ir.Minimized.Repro != "" {
				fmt.Fprintf(os.Stderr, "    repro: %s\n", ir.Minimized.Repro)
			}
		}
	}
	if rep.Totals.Failed > 0 {
		os.Exit(1)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "proteus-crash:", err)
		os.Exit(1)
	}
}
