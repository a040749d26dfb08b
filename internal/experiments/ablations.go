package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/logging"
	"repro/internal/stats"
)

// Ablations beyond the paper's own sensitivity study (§7): each isolates
// one design choice DESIGN.md calls out. Like the figures, each is a
// declared table the shared runner fills.

// PersistencyModels quantifies §2.1's taxonomy on the software-logging
// baseline: strict persistency (fence per store) versus the epoch-style
// durable-transaction steps the paper uses. Values are slowdowns relative
// to the durable-transaction model (higher = slower).
func (s *Suite) PersistencyModels() (*stats.Table, error) {
	model := func(m logging.PersistencyModel) engine.Job {
		j := on(core.PMEM, s.config())
		j.Log = logging.Options{Model: m}
		return j
	}
	var cols []column
	for _, m := range []logging.PersistencyModel{logging.ModelDurableTx, logging.ModelEpoch, logging.ModelStrict} {
		cols = append(cols, column{m.String(), []engine.Job{model(logging.ModelDurableTx), model(m)}, cycleRatio})
	}
	return s.table(table{title: "Ablation: persistency models on software logging (slowdown vs durable-tx)",
		rows: s.benches(), cols: cols, geomean: true})
}

// LLTSizes is the LLT capacity sweep.
var LLTSizes = []int{8, 16, 32, 64, 128, 256}

// LLTSweep measures the LLT miss rate as the table grows (the paper fixes
// 64 entries; this shows why). The returned table holds miss rates in
// percent. Capacities below the default way count shrink the
// associativity to match.
func (s *Suite) LLTSweep() (*stats.Table, error) {
	var cols []column
	for _, n := range LLTSizes {
		c := s.config()
		c.Proteus.LLTSize = n
		c.Proteus.LLTWays = min(c.Proteus.LLTWays, n)
		cols = append(cols, column{fmt.Sprintf("LLT=%d", n), []engine.Job{on(core.Proteus, c)}, missRate})
	}
	return s.table(table{title: "Ablation: LLT miss rate (%) vs capacity", rows: s.benches(), cols: cols, format: "%8.1f"})
}

// StaticVsDynamicFiltering compares the hardware LLT against a
// perfect-alias compiler that statically eliminates duplicate log pairs
// (§4.2 discusses exactly this alternative). Columns: Proteus speedup
// over PMEM with dynamic filtering, with static elimination, and the
// log-flush reduction static elimination achieves over the instruction
// stream the LLT sees.
func (s *Suite) StaticVsDynamicFiltering() (*stats.Table, error) {
	cfg := s.config()
	base, dynamic, static := on(core.PMEM, cfg), on(core.Proteus, cfg), on(core.Proteus, cfg)
	static.Log = logging.Options{StaticLogElim: true}
	emitted := func(rs []*engine.Result) float64 {
		return float64(rs[1].EmittedLogFlushes) / float64(max(rs[0].EmittedLogFlushes, 1))
	}
	return s.table(table{title: "Ablation: LLT vs compiler-side log elimination", rows: s.benches(), geomean: true,
		cols: []column{
			{"dynamic(LLT)", []engine.Job{base, dynamic}, speedup},
			{"static(compiler)", []engine.Job{base, static}, speedup},
			{"logops-emitted-ratio", []engine.Job{dynamic, static}, emitted},
		}})
}

// ATOMInFlightSizes sweeps how many concurrent log-creation requests the
// ATOM model allows.
var ATOMInFlightSizes = []int{1, 2, 4, 8, 16}

// ATOMInFlightSweep shows the cost of ATOM's store-retirement coupling:
// even with deeply pipelined log requests it cannot reach Proteus, whose
// LogQ decouples stores entirely. Values are speedups over PMEM.
func (s *Suite) ATOMInFlightSweep() (*stats.Table, error) {
	cfg := s.config()
	base := on(core.PMEM, cfg)
	var cols []column
	for _, n := range ATOMInFlightSizes {
		c := cfg
		c.ATOM.InFlight = n
		cols = append(cols, column{fmt.Sprintf("inflight=%d", n), []engine.Job{base, on(core.ATOM, c)}, speedup})
	}
	cols = append(cols, versus(base, cfg, speedup, core.Proteus)...)
	return s.table(table{title: "Ablation: ATOM log-request pipelining (speedup vs PMEM)",
		rows: s.benches(), cols: cols, geomean: true})
}

// WPQSizes sweeps the write pending queue capacity.
var WPQSizes = []int{16, 32, 64, 128, 256}

// WPQSweep shows the sensitivity of the software baseline to WPQ depth
// (the paper motivates the LPQ by the cost of growing the WPQ; this is
// the performance side of that trade).
func (s *Suite) WPQSweep() (*stats.Table, error) {
	wpq := func(n int) engine.Job {
		c := s.config()
		c.Mem.WPQ = n
		c.Mem.DrainHi = min(c.Mem.DrainHi, n)
		return on(core.PMEM, c)
	}
	var cols []column
	for _, n := range WPQSizes {
		cols = append(cols, column{fmt.Sprintf("WPQ=%d", n), []engine.Job{wpq(128), wpq(n)}, cycleRatio})
	}
	return s.table(table{title: "Ablation: PMEM cycles normalized to WPQ=128", rows: s.benches(), cols: cols, geomean: true})
}

// WPQDrainAges sweeps the maximum WPQ entry age before a forced drain
// (config.Mem.MaxWPQAge; the default is 48).
var WPQDrainAges = []int{8, 16, 48, 128, 384}

// WPQDrainSweep shows the coalescing-vs-latency trade in the WPQ drain
// policy now that it is configurable: draining entries young forfeits
// write coalescing and row batching, draining them old risks full-queue
// stalls. Values are PMEM cycles normalized to the default age of 48.
func (s *Suite) WPQDrainSweep() (*stats.Table, error) {
	age := func(n int) engine.Job {
		c := s.config()
		c.Mem.MaxWPQAge = n
		return on(core.PMEM, c)
	}
	var cols []column
	for _, n := range WPQDrainAges {
		cols = append(cols, column{fmt.Sprintf("age=%d", n), []engine.Job{age(48), age(n)}, cycleRatio})
	}
	return s.table(table{title: "Ablation: PMEM cycles vs WPQ drain age (normalized to age=48)",
		rows: s.benches(), cols: cols, geomean: true})
}
