// Command proteus-sim runs one (benchmark, scheme, memory) combination on
// the simulated machine and prints the full statistics report.
//
// Example:
//
//	proteus-sim -bench AT -scheme Proteus -mem nvm-fast -simops 400
//	proteus-sim -bench QE -scheme Proteus -trace qe.jsonl -trace-epoch 5000
//
// -trace records an epoch-sampled JSONL trace of the run (ROB/LSQ/LogQ
// occupancy, stall causes, WPQ/LPQ depth, NVM bank pressure); render it
// with proteus-trace -timeline.
//
// -store names a persistent result-store directory (shared with
// proteus-bench and proteus-served): a rerun of an identical tuple is
// answered from disk without simulating.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/resultstore"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	d := engine.DefaultSimSpec
	var spec engine.SimSpec
	var stepper core.Stepper
	flag.StringVar(&spec.Bench, "bench", d.Bench, "benchmark: QE, HM, SS, AT, BT, RT, LL")
	flag.StringVar(&spec.Scheme, "scheme", d.Scheme, "scheme: PMEM, PMEM+pcommit, PMEM+nolog, ATOM, Proteus, Proteus+NoLWR")
	flag.StringVar(&spec.Mem, "mem", d.Mem, "memory kind: nvm-fast, nvm-slow, dram")
	flag.IntVar(&spec.Threads, "threads", d.Threads, "worker threads / cores")
	flag.IntVar(&spec.SimOps, "simops", 0, "timed operations per thread (0 = Table 2 / 25)")
	flag.IntVar(&spec.InitOps, "initops", 0, "initialization operations per thread (0 = Table 2)")
	flag.Int64Var(&spec.Seed, "seed", d.Seed, "workload seed")
	flag.IntVar(&spec.LogQ, "logq", d.LogQ, "Proteus LogQ entries")
	flag.IntVar(&spec.LPQ, "lpq", d.LPQ, "LPQ entries")
	flag.TextVar(&stepper, "stepper", core.StepperFast, "cycle-advance strategy: fast (event-driven fast-forward) or reference (per-cycle)")
	var (
		jobTimeout = flag.Duration("timeout", 0, "wall-clock limit for the simulation, e.g. 10m (0 = none)")
		traceOut   = flag.String("trace", "", "write an epoch-sampled JSONL trace of the run to this file")
		traceEpoch = flag.Uint64("trace-epoch", trace.DefaultEpoch, "cycles between trace samples")
		storeDir   = flag.String("store", "", "persistent result store directory: reruns of an identical tuple are answered from disk")
	)
	flag.Parse()

	job, err := spec.Job()
	exitOn(err)
	p := job.Params

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fmt.Printf("building %v: threads=%d init=%d sim=%d ...\n", job.Kind, p.Threads, p.InitOps, p.SimOps)
	econf := engine.Config{Workers: 1, JobTimeout: *jobTimeout, Stepper: stepper}
	if *storeDir != "" {
		st, err := resultstore.Open(*storeDir)
		exitOn(err)
		econf.Store = st
	}
	if *traceOut != "" {
		econf.Trace = func(j engine.Job) (*trace.Tracer, error) {
			f, err := os.Create(*traceOut)
			if err != nil {
				return nil, err
			}
			meta := trace.Meta{Label: j.String(), Fingerprint: j.Fingerprint(), Cores: j.Config.Cores}
			tr, err := trace.NewJSONLTracer(f, meta, *traceEpoch)
			if err != nil {
				f.Close()
				return nil, err
			}
			return tr, nil
		}
	}
	eng := engine.New(econf)
	start := time.Now()
	res, err := eng.Run(ctx, job)
	exitOn(err)
	if eng.Counters().StoreHits > 0 {
		fmt.Printf("answered from result store in %v\n", time.Since(start).Round(time.Millisecond))
	} else {
		fmt.Printf("simulated in %v\n", time.Since(start).Round(time.Millisecond))
	}
	if *traceOut != "" {
		fmt.Printf("trace written to %s (1 sample per %d cycles)\n", *traceOut, *traceEpoch)
	}

	printReport(job, res.Report)
}

func printReport(job engine.Job, rep *stats.Report) {
	p := job.Params
	txns := uint64(p.SimOps * p.Threads)
	fmt.Printf("\n%v / %v on %v\n", job.Kind, job.Scheme, job.Config.Mem.Kind)
	fmt.Printf("  cycles            %12d  (%.0f per txn)\n", rep.Cycles, float64(rep.Cycles)/float64(p.SimOps))
	fmt.Printf("  retired uops      %12d\n", rep.TotalRetired())
	fmt.Printf("  transactions      %12d\n", txns)
	fmt.Printf("  front-end stalls  %12d\n", rep.TotalFrontEndStalls())
	m := rep.MemStat
	fmt.Printf("  NVM reads         %12d\n", m.Reads)
	fmt.Printf("  NVM writes        %12d  (data %d, log %d, truncate %d)\n",
		m.NVMWrites(), m.Writes[stats.WriteData], m.Writes[stats.WriteLog], m.Writes[stats.WriteTruncate])
	fmt.Printf("  WPQ coalesced     %12d\n", m.WPQCoalesced)
	fmt.Printf("  LPQ accepted      %12d  dropped %d, drained %d\n", m.LPQAccepted, m.LPQDropped, m.LPQDrained)
	fmt.Printf("  row buffer        %12.1f%% hits\n", 100*float64(m.RowBufferHits)/float64(max64(m.RowBufferHits+m.RowBufferMiss, 1)))
	var logLoads, flushes, lltH, lltM uint64
	for i := range rep.CoreStat {
		logLoads += rep.CoreStat[i].LogLoads
		flushes += rep.CoreStat[i].LogFlushes
		lltH += rep.CoreStat[i].LLTHits
		lltM += rep.CoreStat[i].LLTMisses
	}
	if logLoads > 0 {
		fmt.Printf("  log ops           %12d  (%d flushed to MC, LLT miss %.1f%%)\n",
			logLoads, flushes, rep.LLTMissRate())
	}
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "proteus-sim:", err)
		os.Exit(1)
	}
}
