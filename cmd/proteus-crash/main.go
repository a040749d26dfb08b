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

	"repro/internal/core"
	"repro/internal/crashcampaign"
	"repro/internal/engine"
	"repro/internal/enum"
	"repro/internal/resultstore"
	"repro/internal/workload"
)

func main() {
	camp := crashcampaign.Default()
	var stepper core.Stepper
	enum.ListVar(&camp.Benches, "bench", "all", "comma-separated benchmark abbrevs (QE, HM, SS, AT, BT, RT) or all", workload.ParseKinds)
	enum.ListVar(&camp.Schemes, "scheme", "all", "comma-separated schemes or all (the failure-safe set); PMEM+nolog may be named explicitly", core.ParseSchemes)
	enum.ListVar(&camp.Faults, "faults", "clean", "fault models to inject: clean, torn, adrloss, corrupt, all (clean is always included)", crashcampaign.ParseFaults)
	flag.TextVar(&camp.Minimize, "minimize", camp.Minimize, "which outcomes to minimize: failed, all, off")
	flag.TextVar(&stepper, "stepper", core.StepperFast, "cycle-advance strategy: fast (event-driven fast-forward) or reference (per-cycle)")
	flag.IntVar(&camp.Sweep, "sweep", camp.Sweep, "systematically spaced crash points per tuple")
	flag.IntVar(&camp.Rand, "rand", camp.Rand, "additional seeded-random crash points per tuple")
	flag.IntVar(&camp.Params.Threads, "threads", camp.Params.Threads, "worker threads / cores")
	flag.IntVar(&camp.Params.SimOps, "simops", camp.Params.SimOps, "timed operations per thread")
	flag.IntVar(&camp.Params.InitOps, "initops", camp.Params.InitOps, "initialization operations per thread")
	flag.Int64Var(&camp.Params.Seed, "wseed", camp.Params.Seed, "workload seed")
	flag.Int64Var(&camp.Seed, "seed", camp.Seed, "campaign seed: crash-point choice and per-line fault randomness")
	flag.StringVar(&camp.ArtifactDir, "artifacts", "", "dump minimized-failure reproducers into this directory")
	var (
		jobs       = flag.Int("jobs", 0, "concurrent simulation jobs (0 = GOMAXPROCS)")
		jobTimeout = flag.Duration("timeout", 10*time.Minute, "wall-clock limit per tuple sweep (0 = none)")
		out        = flag.String("out", "report.json", "report destination (- = stdout)")
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
	camp.Engine = engine.New(engCfg)

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
