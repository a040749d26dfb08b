// Command proteus-trace inspects the per-scheme code generation: it
// builds a workload, expands it under one or two schemes, and prints
// instruction histograms, per-transaction averages, and (optionally) the
// first transactions' micro-ops — the quickest way to see exactly what
// each logging scheme adds to the instruction stream.
//
// It also renders epoch-sampled run traces (proteus-sim -trace /
// proteus-bench -trace-dir) as an ASCII occupancy timeline.
//
// Example:
//
//	proteus-trace -bench QE -scheme PMEM -vs Proteus -dump 1
//	proteus-trace -timeline qe.jsonl
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/logging"
	"repro/internal/timeline"
	"repro/internal/workload"
)

func main() {
	var (
		kind   workload.Kind
		scheme core.Scheme
		vs     []core.Scheme
	)
	flag.TextVar(&kind, "bench", workload.Queue, "benchmark: QE, HM, SS, AT, BT, RT, LL")
	flag.TextVar(&scheme, "scheme", core.PMEM, "scheme to expand")
	flag.Func("vs", "optional second scheme to compare against", func(s string) error {
		other, err := core.SchemeByName(s)
		vs = []core.Scheme{other}
		return err
	})
	var (
		dump      = flag.Int("dump", 0, "print the micro-ops of the first N transactions")
		simOps    = flag.Int("simops", 32, "timed operations per thread")
		threads   = flag.Int("threads", 1, "threads")
		seed      = flag.Int64("seed", 42, "workload seed")
		timelineF = flag.String("timeline", "", "render this JSONL run trace as an ASCII occupancy timeline and exit")
		width     = flag.Int("width", timeline.DefaultWidth, "timeline chart width in columns")
	)
	flag.Parse()

	if *timelineF != "" {
		f, err := os.Open(*timelineF)
		exitOn(err)
		err = timeline.Render(os.Stdout, f, *width)
		f.Close()
		exitOn(err)
		return
	}

	p := kind.DefaultParams(1)
	p.Threads = *threads
	p.SimOps = *simOps
	p.InitOps /= 50
	if p.InitOps < 32 {
		p.InitOps = 32
	}
	p.Seed = *seed
	w, err := workload.Build(kind, p)
	exitOn(err)

	cfg := config.Default()
	for _, scheme := range append([]core.Scheme{scheme}, vs...) {
		traces, err := logging.Generate(w, scheme, cfg)
		exitOn(err)
		tr := traces[0]
		s := tr.Summarize()
		txns := float64(p.SimOps)
		fmt.Printf("%v / %v: %d micro-ops on thread 0 (%.1f per txn)\n", kind, scheme, tr.Len(), float64(tr.Len())/txns)
		fmt.Printf("  loads  %6d (%.1f/txn)   stores   %6d (%.1f/txn)   alu units %d\n",
			s.Loads, float64(s.Loads)/txns, s.Stores, float64(s.Stores)/txns, s.Alus)
		fmt.Printf("  clwb   %6d (%.1f/txn)   sfence   %6d (%.1f/txn)   pcommit   %d\n",
			s.Clwbs, float64(s.Clwbs)/txns, s.Sfences, float64(s.Sfences)/txns, s.Pcommits)
		fmt.Printf("  logld  %6d (%.1f/txn)   logflush %6d (%.1f/txn)   locks     %d\n",
			s.LogLoads, float64(s.LogLoads)/txns, s.LogFlushes, float64(s.LogFlushes)/txns, s.Locks)
		if *dump > 0 {
			dumpTxns(tr, *dump)
		}
		fmt.Println()
	}
}

func dumpTxns(tr *isa.Trace, n int) {
	txn := 0
	for _, op := range tr.Ops {
		if op.Kind == isa.TxBegin {
			txn++
			if txn > n {
				return
			}
		}
		if txn >= 1 {
			fmt.Printf("    %s\n", op)
		}
		if op.Kind == isa.TxEnd && txn >= n {
			return
		}
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "proteus-trace:", err)
		os.Exit(1)
	}
}
