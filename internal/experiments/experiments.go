// Package experiments regenerates every table and figure of the paper's
// evaluation (§6-§7), plus the ablations in ablations.go. The
// per-experiment index lives in DESIGN.md §4; measured-vs-paper numbers
// are recorded in EXPERIMENTS.md.
//
// Every experiment is a declaration: rows (a workload each) times
// columns (the runs each cell reads and how its value follows from their
// results). One runner hands the distinct (workload, scheme, config) jobs
// to a shared simulation engine (internal/engine), which runs them on a
// bounded worker pool and memoizes each tuple, then fills the cells from
// the keyed results, so output is byte-identical regardless of worker
// count. Sharing one Suite across figures (as cmd/proteus-bench does)
// dedupes the many runs Figures 6/7/8/11/12 and the ablations have in
// common.
package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Options sizes the experiment runs.
type Options struct {
	// Threads is the worker-thread/core count (the paper uses 4).
	Threads int
	// SimScale divides the Table 2 timed-operation counts; 1 reproduces
	// the paper's counts, larger values shrink runs shape-preservingly.
	SimScale int
	// InitScale divides the Table 2 initialization counts. Keep it small
	// (1-2): the initialization sets the memory footprint, and the
	// schemes' relative behaviour depends on realistic miss rates.
	InitScale int
	Seed      int64
}

// Default returns the options the benchmark harness uses: full footprint,
// 1/25th of the timed operations.
func Default() Options {
	return Options{Threads: 4, SimScale: 25, InitScale: 1, Seed: 42}
}

// Quick returns small options for tests (distorted magnitudes, same
// plumbing).
func Quick() Options {
	return Options{Threads: 2, SimScale: 400, InitScale: 25, Seed: 42}
}

// Validate reports options whose Table 2 rows Build would refuse (a
// thread count outside [1, isa.MaxThreads], say). It builds nothing, so a
// job server can refuse such a figure at admission.
func (o Options) Validate() error {
	for _, k := range workload.Table2 {
		if err := o.params(k).Validate(k); err != nil {
			return fmt.Errorf("experiments: %v: %w", k, err)
		}
	}
	return nil
}

func (o Options) params(k workload.Kind) workload.Params {
	p := k.DefaultParams(1)
	p.Threads = o.Threads
	p.Seed = o.Seed
	if o.SimScale > 1 {
		p.SimOps /= o.SimScale
	}
	if o.InitScale > 1 {
		p.InitOps /= o.InitScale
		p.SSItems /= o.InitScale
	}
	if p.SimOps < 8 {
		p.SimOps = 8
	}
	if p.InitOps < 16 {
		p.InitOps = 16
	}
	if p.SSItems < 64 {
		p.SSItems = 64
	}
	return p
}

// Suite runs figures through one shared engine: every (workload, scheme,
// config) tuple any of its figures needs is simulated at most once for
// the suite's lifetime.
type Suite struct {
	opt Options
	eng *engine.Engine
	ctx context.Context
}

// NewSuite returns a suite over the engine. A nil context means
// context.Background(); a nil engine gets a private one with default
// settings (GOMAXPROCS workers).
func NewSuite(ctx context.Context, opt Options, eng *engine.Engine) *Suite {
	if ctx == nil {
		ctx = context.Background()
	}
	if eng == nil {
		eng = engine.New(engine.Config{})
	}
	return &Suite{opt: opt, eng: eng, ctx: ctx}
}

// Engine exposes the suite's engine (for its execution counters).
func (s *Suite) Engine() *engine.Engine { return s.eng }

// config returns the default machine scaled to the suite's thread count.
func (s *Suite) config() config.Config {
	cfg := config.Default()
	cfg.Cores = s.opt.Threads
	return cfg
}

// row is one table row: the workload every run of its cells simulates.
type row struct {
	name   string
	kind   workload.Kind
	params workload.Params
}

// job completes a run — scheme, machine and logging options — with the
// row's workload.
func (r row) job(run engine.Job) engine.Job {
	run.Kind, run.Params = r.kind, r.params
	return run
}

// benches returns one row per Table 2 benchmark.
func (s *Suite) benches() []row {
	rows := make([]row, 0, len(workload.Table2))
	for _, k := range workload.Table2 {
		rows = append(rows, row{k.Abbrev(), k, s.opt.params(k)})
	}
	return rows
}

// column declares one table column: the runs each of its cells reads in
// the row's workload, and the cell value computed from their results in
// the same order.
type column struct {
	name  string
	runs  []engine.Job
	value func(rs []*engine.Result) float64
}

// table declares one figure or table.
type table struct {
	title   string
	rowName string // header of the row names; "" means "bench"
	rows    []row
	cols    []column
	format  string // cell format; "" keeps the stats default
	geomean bool   // append a geomean row over the benchmarks
}

// on names a run of the scheme on the machine; the row adds the workload.
func on(sc core.Scheme, cfg config.Config) engine.Job {
	return engine.Job{Scheme: sc, Config: cfg}
}

// speedup is the second run's speedup over the first.
func speedup(rs []*engine.Result) float64 { return rs[1].Report.Speedup(rs[0].Report) }

// cycleRatio is the second run's cycles over the first's; NaN when the
// first ran no cycles.
func cycleRatio(rs []*engine.Result) float64 {
	if rs[0].Report.Cycles == 0 {
		return math.NaN()
	}
	return float64(rs[1].Report.Cycles) / float64(rs[0].Report.Cycles)
}

// missRate is the run's LLT miss rate in percent.
func missRate(rs []*engine.Result) float64 { return rs[0].Report.LLTMissRate() }

// run simulates every job the tables read, then fills their cells. The
// distinct jobs go to one RunAll in row-major, first-seen order, and each
// is read back once. A cell that reads a failed job is missing (NaN,
// rendered "-"); the rest of the table renders from the survivors. Only
// cancelling the suite aborts.
func (s *Suite) run(decls ...table) ([]*stats.Table, error) {
	var jobs []engine.Job
	seen := make(map[engine.Job]bool)
	for _, d := range decls {
		for _, r := range d.rows {
			for _, c := range d.cols {
				for _, run := range c.runs {
					if j := r.job(run); !seen[j] {
						seen[j] = true
						jobs = append(jobs, j)
					}
				}
			}
		}
	}
	if err := s.eng.RunAll(s.ctx, jobs); err != nil {
		return nil, err
	}
	results := make(map[engine.Job]*engine.Result, len(jobs))
	for _, j := range jobs {
		res, err := s.eng.Run(s.ctx, j)
		if err == nil {
			results[j] = res
		} else if s.ctx.Err() != nil {
			return nil, err
		}
	}
	tabs := make([]*stats.Table, len(decls))
	for i, d := range decls {
		tabs[i] = d.fill(results)
	}
	return tabs, nil
}

// table runs a single declared table.
func (s *Suite) table(d table) (*stats.Table, error) {
	tabs, err := s.run(d)
	if err != nil {
		return nil, err
	}
	return tabs[0], nil
}

// fill renders the declared table from the jobs' results; a job without
// a result failed.
func (d table) fill(results map[engine.Job]*engine.Result) *stats.Table {
	rows := make([]string, len(d.rows))
	for i, r := range d.rows {
		rows[i] = r.name
	}
	cols := make([]string, len(d.cols))
	for i, c := range d.cols {
		cols[i] = c.name
	}
	rowName := d.rowName
	if rowName == "" {
		rowName = "bench"
	}
	tab := stats.NewTable(d.title, rowName, rows, cols)
	if d.format != "" {
		tab.Format = d.format
	}
	for i, r := range d.rows {
		for k, c := range d.cols {
			tab.Cells[i][k] = c.cell(r, results)
		}
	}
	if d.geomean {
		tab.AddGeoMeanRow()
	}
	return tab
}

// cell computes the column's value in the row: NaN when a job it reads
// has no result.
func (c column) cell(r row, results map[engine.Job]*engine.Result) float64 {
	rs := make([]*engine.Result, len(c.runs))
	for i, run := range c.runs {
		if rs[i] = results[r.job(run)]; rs[i] == nil {
			return math.NaN()
		}
	}
	return c.value(rs)
}

// versus declares one column per scheme on cfg, named after the scheme;
// each cell reads base, then the scheme's run.
func versus(base engine.Job, cfg config.Config, value func([]*engine.Result) float64, schemes ...core.Scheme) []column {
	cols := make([]column, 0, len(schemes))
	for _, sc := range schemes {
		cols = append(cols, column{sc.String(), []engine.Job{base, on(sc, cfg)}, value})
	}
	return cols
}

// speedupFigure runs the Figure 6/9/10 matrix on the given memory kind:
// speedup of every scheme over the PMEM software-logging baseline.
func (s *Suite) speedupFigure(kind config.MemKind, title string) (*stats.Table, error) {
	cfg := s.config().WithMemKind(kind)
	cols := versus(on(core.PMEM, cfg), cfg, speedup,
		core.PMEMPcommit, core.ATOM, core.ProteusNoLWR, core.Proteus, core.PMEMNoLog)
	return s.table(table{title: title, rows: s.benches(), cols: cols, geomean: true})
}

// Figure6 reproduces the speedup comparison on (fast) NVMM with software
// logging with PMEM as baseline.
func (s *Suite) Figure6() (*stats.Table, error) {
	return s.speedupFigure(config.NVMFast, "Figure 6: speedup on NVMM (baseline: PMEM software logging)")
}

// Figure9 reproduces the slow-NVMM study (300ns writes, §7.1).
func (s *Suite) Figure9() (*stats.Table, error) {
	return s.speedupFigure(config.NVMSlow, "Figure 9: speedup on slow NVMM, 300ns writes (baseline: PMEM)")
}

// Figure10 reproduces the DRAM study (§7.2).
func (s *Suite) Figure10() (*stats.Table, error) {
	return s.speedupFigure(config.DRAM, "Figure 10: speedup on DRAM (baseline: PMEM)")
}

// Figure7 reproduces the front-end stall comparison: stall cycles
// normalized to PMEM+nolog.
func (s *Suite) Figure7() (*stats.Table, error) {
	cfg := s.config()
	// A run that never stalls counts as 1 stall, on both sides, to keep
	// the ratio and the geomean defined.
	stalls := func(rs []*engine.Result) float64 {
		n := func(r *engine.Result) float64 { return max(float64(r.Report.TotalFrontEndStalls()), 1) }
		return n(rs[1]) / n(rs[0])
	}
	cols := versus(on(core.PMEMNoLog, cfg), cfg, stalls, core.ATOM, core.Proteus, core.PMEMNoLog)
	return s.table(table{title: "Figure 7: front-end stall cycles (normalized to PMEM+nolog)",
		rows: s.benches(), cols: cols, geomean: true})
}

// Figure8 reproduces the NVMM write comparison: writes normalized to
// PMEM+nolog.
func (s *Suite) Figure8() (*stats.Table, error) {
	cfg := s.config()
	// A baseline without writes counts as 1 write.
	writes := func(rs []*engine.Result) float64 {
		return float64(rs[1].Report.MemStat.NVMWrites()) / max(float64(rs[0].Report.MemStat.NVMWrites()), 1)
	}
	cols := versus(on(core.PMEMNoLog, cfg), cfg, writes, core.PMEM, core.ATOM, core.Proteus, core.PMEMNoLog)
	return s.table(table{title: "Figure 8: NVMM writes (normalized to PMEM+nolog)",
		rows: s.benches(), cols: cols, geomean: true})
}

// LogQSizes is the Figure 11 sweep.
var LogQSizes = []int{1, 2, 4, 8, 16, 32, 64}

// logQSweep declares Proteus's speedup over PMEM on cfg for each LogQ size.
func (s *Suite) logQSweep(title string, cfg config.Config, sizes []int) table {
	var cols []column
	for _, n := range sizes {
		c := cfg
		c.Proteus.LogQ = n
		cols = append(cols, column{fmt.Sprintf("LogQ=%d", n), []engine.Job{on(core.PMEM, cfg), on(core.Proteus, c)}, speedup})
	}
	return table{title: title, rows: s.benches(), cols: cols, geomean: true}
}

// Figure11 reproduces the LogQ-size sensitivity: Proteus speedup over PMEM
// for LogQ sizes 1-64.
func (s *Suite) Figure11() (*stats.Table, error) {
	return s.table(s.logQSweep("Figure 11: Proteus speedup vs LogQ size (baseline: PMEM)", s.config(), LogQSizes))
}

// LPQSizes is the Figure 12 sweep (LogQ fixed at 16).
var LPQSizes = []int{16, 32, 64, 128, 256, 512}

// Figure12 reproduces the LPQ-size sensitivity at LogQ=16.
func (s *Suite) Figure12() (*stats.Table, error) {
	cfg := s.config()
	var cols []column
	for _, n := range LPQSizes {
		c := cfg
		c.Mem.LPQ = n
		cols = append(cols, column{fmt.Sprintf("LPQ=%d", n), []engine.Job{on(core.PMEM, cfg), on(core.Proteus, c)}, speedup})
	}
	return s.table(table{title: "Figure 12: Proteus speedup vs LPQ size, LogQ=16 (baseline: PMEM)",
		rows: s.benches(), cols: cols, geomean: true})
}

// Table3Sizes is the large-transaction element sweep.
var Table3Sizes = []int{1024, 2048, 4096, 8192}

// Table3Result reproduces the large-transaction study on the linked-list
// microbenchmark: Proteus and ideal speedups over PMEM, and the log-entry
// amplification before and after the LLT.
type Table3Result struct {
	Speedups *stats.Table
	// EntriesPerTxn / FlushedPerTxn report logging ops per transaction
	// before and after LLT filtering for each size (§7.3's 20-156x and
	// 7-52x factors are relative to the Table 2 benchmarks).
	EntriesPerTxn map[int]float64
	FlushedPerTxn map[int]float64
}

// table3Params sizes the linked-list workload for n-element transactions.
func (s *Suite) table3Params(n int) workload.Params {
	p := workload.LinkedList.DefaultParams(1)
	p.Threads = s.opt.Threads
	p.Seed = s.opt.Seed
	p.ListElems = n
	p.SimOps = 192 / s.opt.Threads
	if s.opt.SimScale > 25 {
		p.SimOps = 64 / s.opt.Threads
	}
	if p.SimOps < 8 {
		p.SimOps = 8
	}
	return p
}

// Table3 runs the sweep. Its rows are the element counts; the Proteus
// runs' log-op totals ride along in a second, unrendered table and are
// divided into per-transaction counts here (NaN where the run failed).
func (s *Suite) Table3() (*Table3Result, error) {
	cfg := s.config()
	var rows []row
	for _, n := range Table3Sizes {
		rows = append(rows, row{fmt.Sprint(n), workload.LinkedList, s.table3Params(n)})
	}
	base, proteus := on(core.PMEM, cfg), on(core.Proteus, cfg)
	logLoads := func(rs []*engine.Result) float64 {
		var t uint64
		for i := range rs[0].Report.CoreStat {
			t += rs[0].Report.CoreStat[i].LogLoads
		}
		return float64(t)
	}
	flushes := func(rs []*engine.Result) float64 { return float64(rs[0].Report.TotalLogFlushes()) }
	tabs, err := s.run(
		table{title: "Table 3: speedups for large transactions (baseline: PMEM)", rowName: "txn size", rows: rows,
			cols: []column{
				{"Proteus", []engine.Job{base, proteus}, speedup},
				{"PMEM+nolog(ideal)", []engine.Job{base, on(core.PMEMNoLog, cfg)}, speedup},
			}},
		table{rows: rows, cols: []column{{"entries", []engine.Job{proteus}, logLoads}, {"flushed", []engine.Job{proteus}, flushes}}},
	)
	if err != nil {
		return nil, err
	}
	res := &Table3Result{Speedups: tabs[0], EntriesPerTxn: make(map[int]float64), FlushedPerTxn: make(map[int]float64)}
	for i, n := range Table3Sizes {
		txns := float64(rows[i].params.SimOps * s.opt.Threads)
		res.EntriesPerTxn[n] = tabs[1].Cells[i][0] / txns
		res.FlushedPerTxn[n] = tabs[1].Cells[i][1] / txns
	}
	return res, nil
}

// Table4 reproduces the LLT miss rates (64-entry LLT).
func (s *Suite) Table4() (*stats.Table, error) {
	return s.table(table{title: "Table 4: LLT miss rate (%), 64-entry 8-way LLT", rows: s.benches(),
		cols: []column{{"miss rate", []engine.Job{on(core.Proteus, s.config())}, missRate}}, format: "%8.1f"})
}

// LogQMemoryDelta reproduces the §7.2 observation: the speedup gained by
// growing the LogQ from 8 to 16 entries on NVM vs on DRAM — the geomean
// row of a two-column LogQ sweep on each memory kind.
func (s *Suite) LogQMemoryDelta() (nvmDelta, dramDelta float64, err error) {
	var decls []table
	for _, kind := range []config.MemKind{config.NVMFast, config.DRAM} {
		decls = append(decls, s.logQSweep("", s.config().WithMemKind(kind), []int{8, 16}))
	}
	tabs, err := s.run(decls...)
	if err != nil {
		return 0, 0, err
	}
	delta := func(t *stats.Table) float64 { return t.Get("geomean", "LogQ=16") - t.Get("geomean", "LogQ=8") }
	return delta(tabs[0]), delta(tabs[1]), nil
}
