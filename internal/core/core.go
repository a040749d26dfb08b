// Package core assembles the full simulated machine — out-of-order cores,
// private L1D/L2 caches, shared L3, memory controller with WPQ/LPQ, and
// the NVM/DRAM device — and runs per-scheme micro-op traces on it. It is
// the top of the reproduction: every experiment in the paper is a set of
// (workload, Scheme, memory kind) runs of a System.
package core

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/enum"
	"repro/internal/isa"
	"repro/internal/memctrl"
	"repro/internal/nvm"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Scheme is one of the logging designs the paper evaluates (§6).
type Scheme int

const (
	// PMEM is the baseline: software undo logging built from Intel PMEM
	// instructions (clwb + sfence per Figure 2), with ADR (no pcommit).
	PMEM Scheme = iota
	// PMEMPcommit is PMEM plus a pcommit after every persist step: the
	// WPQ is not in the persistency domain and must drain to NVM.
	PMEMPcommit
	// PMEMNoLog removes the logging code entirely (the ideal case: no
	// failure safety, no logging overheads).
	PMEMNoLog
	// ATOM is the state-of-the-art hardware undo logging comparison with
	// its posted-log and source-log optimizations.
	ATOM
	// Proteus is the paper's software-supported hardware logging with log
	// write removal (the LPQ, §4.3).
	Proteus
	// ProteusNoLWR is Proteus without log write removal: log flushes
	// drain to NVM through the WPQ like regular writes.
	ProteusNoLWR
)

// Schemes lists all schemes in presentation order (Figure 6's bars).
var Schemes = []Scheme{PMEM, PMEMPcommit, ATOM, ProteusNoLWR, Proteus, PMEMNoLog}

func (s Scheme) String() string {
	switch s {
	case PMEM:
		return "PMEM"
	case PMEMPcommit:
		return "PMEM+pcommit"
	case PMEMNoLog:
		return "PMEM+nolog"
	case ATOM:
		return "ATOM"
	case Proteus:
		return "Proteus"
	case ProteusNoLWR:
		return "Proteus+NoLWR"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

var schemes = enum.Names[Scheme]{What: "scheme", Values: Schemes, All: FailureSafeSchemes()}

// SchemeByName resolves a scheme by its display name, case-insensitively
// ("proteus", "PMEM+pcommit", ...).
func SchemeByName(name string) (Scheme, error) { return schemes.Lookup(name) }

// FailureSafeSchemes returns the schemes that claim failure safety, in
// presentation order: the default set of every crash-consistency sweep.
func FailureSafeSchemes() []Scheme {
	var out []Scheme
	for _, s := range Schemes {
		if s.FailureSafe() {
			out = append(out, s)
		}
	}
	return out
}

// ParseSchemes parses a comma-separated scheme list; "all" means the
// failure-safe set.
func ParseSchemes(list string) ([]Scheme, error) { return schemes.List(list) }

// MarshalText encodes a scheme as its display name.
func (s Scheme) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText decodes a scheme's display name, case-insensitively.
func (s *Scheme) UnmarshalText(text []byte) error { return schemes.Unmarshal(s, text) }

// Mode returns the core execution mode the scheme needs.
func (s Scheme) Mode() cpu.Mode {
	switch s {
	case ATOM:
		return cpu.ModeATOM
	case Proteus, ProteusNoLWR:
		return cpu.ModeProteus
	default:
		return cpu.ModePlain
	}
}

// LWR reports whether log write removal (the LPQ) is enabled.
func (s Scheme) LWR() bool { return s == Proteus }

// ADR reports whether the WPQ/LPQ are inside the persistency domain.
// Only the PMEM+pcommit baseline models the pre-ADR world.
func (s Scheme) ADR() bool { return s != PMEMPcommit }

// FailureSafe reports whether the scheme claims transaction atomicity
// across power failures. PMEM+nolog is the ideal case and is not safe.
func (s Scheme) FailureSafe() bool { return s != PMEMNoLog }

// Stepper selects the Step implementation.
type Stepper int

const (
	// StepperFast is the event-driven fast-forward stepper (the default):
	// when no component can change state, it computes the next event cycle,
	// measures one inert cycle, and advances the remaining span in closed
	// form. It is cross-checked against StepperReference for byte-identical
	// output by the equivalence tests and fuzz target.
	StepperFast Stepper = iota
	// StepperReference is the naive cycle-at-a-time stepper, retained as
	// the correctness oracle and for bisection via -stepper=reference.
	StepperReference
)

func (st Stepper) String() string {
	switch st {
	case StepperFast:
		return "fast"
	case StepperReference:
		return "reference"
	}
	return fmt.Sprintf("Stepper(%d)", int(st))
}

var steppers = enum.Names[Stepper]{What: "stepper", Values: []Stepper{StepperFast, StepperReference}}

// MarshalText encodes a stepper as its name.
func (st Stepper) MarshalText() ([]byte, error) { return []byte(st.String()), nil }

// UnmarshalText decodes a stepper name ("fast" or "reference"),
// case-insensitively.
func (st *Stepper) UnmarshalText(text []byte) error { return steppers.Unmarshal(st, text) }

// System is one assembled machine executing one micro-op stream per core.
type System struct {
	cfg    config.Config
	scheme Scheme

	store *nvm.Store
	dev   *nvm.Device
	mc    *memctrl.Controller
	l3    *cache.Level
	hiers []*cache.Hierarchy
	cores []*cpu.Core

	coreStats []stats.Core
	memStat   stats.Mem

	cycle       uint64
	drainCycles uint64
	finished    bool
	released    bool

	// Fast-forward state: the stepper choice, the progress signature of
	// the previous cycle, and reusable counter snapshots for the measured
	// inert cycle.
	stepper  Stepper
	lastSig  uint64
	statSnap []stats.Core
	memSnap  stats.Mem

	// Epoch-sampled tracing (nil = disabled; the only hot-path cost of
	// the disabled state is the nil check in Step).
	tracer    *trace.Tracer
	traceNext uint64
	sample    trace.Sample
}

// NewSystem builds a machine for the scheme. traces supplies one
// materialized micro-op stream per core (missing entries run an idle
// core); initImage, when non-nil, pre-populates NVM with the workload's
// functional state after its initialization operations.
func NewSystem(cfg config.Config, scheme Scheme, traces []*isa.Trace, initImage *nvm.Store) (*System, error) {
	return newSystem(cfg, scheme, len(traces), func(i int) cpu.Source {
		if traces[i] == nil {
			return nil
		}
		return traces[i]
	}, initImage)
}

// NewStreamedSystem is NewSystem with each core fetching from an op
// source that generates its ops as the core dispatches them, so the run
// never holds a whole trace. A source feeds one run: a System that must be
// rebuilt from cycle 0 needs materialized traces.
func NewStreamedSystem(cfg config.Config, scheme Scheme, srcs []cpu.Source, initImage *nvm.Store) (*System, error) {
	return newSystem(cfg, scheme, len(srcs), func(i int) cpu.Source { return srcs[i] }, initImage)
}

// newSystem builds the machine with core i fetching from source(i) for
// i < n.
func newSystem(cfg config.Config, scheme Scheme, n int, source func(int) cpu.Source, initImage *nvm.Store) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n > cfg.Cores {
		return nil, fmt.Errorf("core: %d micro-op streams for %d cores", n, cfg.Cores)
	}
	store := nvm.NewStore()
	if initImage != nil {
		// Copy-on-write: the init image is typically shared by thousands of
		// simulations per campaign; forking replaces the dominant allocation
		// cost of building a System.
		store = initImage.Fork()
	}
	s := &System{
		cfg:       cfg,
		scheme:    scheme,
		store:     store,
		coreStats: make([]stats.Core, cfg.Cores),
		statSnap:  make([]stats.Core, cfg.Cores),
	}
	s.dev = nvm.NewDevice(cfg.Mem, &s.memStat)
	s.mc = memctrl.New(cfg.Mem, s.dev, store, &s.memStat)
	s.l3 = cache.NewLevel(cfg.L3)
	for i := 0; i < cfg.Cores; i++ {
		var src cpu.Source
		if i < n {
			src = source(i)
		}
		hier := cache.NewHierarchy(cfg, s.l3, s.mc, &s.coreStats[i])
		s.hiers = append(s.hiers, hier)
		s.cores = append(s.cores, cpu.New(i, cfg, scheme.Mode(), scheme.LWR(), hier, s.mc, src, &s.coreStats[i]))
	}
	return s, nil
}

// Release returns the machine's cache arrays (every core's L1D and L2,
// and the shared L3) to a free list, so the next System of the same cache
// geometry reuses them instead of allocating and zeroing ~12 MB. Call it
// when the run is over: the statistics, commits, store and crash images
// stay readable, but Step (and so Run) panics afterwards. A second call
// is a no-op.
func (s *System) Release() {
	if s.released {
		return
	}
	s.released = true
	for _, h := range s.hiers {
		h.Release()
	}
	s.l3.Release()
	s.hiers, s.l3 = nil, nil
}

// Store exposes the functional memory contents (benchmarks and tests).
func (s *System) Store() *nvm.Store { return s.store }

// SetStepper selects the Step implementation; call it before the run
// starts. The default is StepperFast. The reference stepper also makes
// the memory controller scan for writes to issue on every cycle, so the
// controller's issue gate is checked against that per-cycle scan.
func (s *System) SetStepper(st Stepper) {
	s.stepper = st
	s.mc.IssueEveryCycle(st == StepperReference)
}

// Cycle returns the current simulation cycle.
func (s *System) Cycle() uint64 { return s.cycle }

// Finished reports whether every core has drained its ops.
func (s *System) Finished() bool { return s.finished }

// SetTracer attaches an epoch-sampled tracer; call it before the run
// starts. A nil tracer (the default) disables sampling entirely.
func (s *System) SetTracer(t *trace.Tracer) {
	s.tracer = t
	if t != nil {
		s.traceNext = s.cycle + t.Epoch()
		s.sample.Cores = make([]trace.CoreSample, len(s.cores))
	}
}

// emitSample snapshots the machine into the reused sample buffer and
// forwards it to the tracer. Occupancies are instantaneous at the given
// cycle; counters are cumulative, so the final sample equals the report.
func (s *System) emitSample(cycle uint64, final bool) {
	sm := &s.sample
	sm.Cycle = cycle
	sm.Final = final
	for i, c := range s.cores {
		cs := &sm.Cores[i]
		st := &s.coreStats[i]
		cs.ROB, cs.LoadQ, cs.StoreQ, cs.StoreBuf = c.Occupancy()
		cs.LogQ = c.LogQDepth()
		cs.FreeLogRegs = c.FreeLogRegs()
		cs.ATOMInFlight = c.ATOMInFlight()
		cs.Retired = st.Retired
		cs.StallROB = st.StallCycles[stats.StallROB]
		cs.StallLoadQ = st.StallCycles[stats.StallLoadQ]
		cs.StallStoreQ = st.StallCycles[stats.StallStoreQ]
		cs.StallLogReg = st.StallCycles[stats.StallLogReg]
		cs.StallLogQ = st.StallCycles[stats.StallLogQ]
		cs.SfenceWait = st.SfenceWait
		cs.PcommitWait = st.PcommitWait
	}
	m := &s.memStat
	sm.Mem = trace.MemSample{
		WPQ:            s.mc.WPQLen(),
		LPQ:            s.mc.LPQLen(),
		ReadQ:          s.mc.ReadQLen(),
		BusyBanks:      s.dev.BusyBanks(cycle),
		Reads:          m.Reads,
		WritesData:     m.Writes[stats.WriteData],
		WritesLog:      m.Writes[stats.WriteLog],
		WritesTruncate: m.Writes[stats.WriteTruncate],
		LPQAccepted:    m.LPQAccepted,
		LPQDropped:     m.LPQDropped,
		LPQDrained:     m.LPQDrained,
	}
	s.tracer.Emit(sm)
}

// Step advances the machine by up to n cycles, stopping early when all
// cores finish. It returns the number of cycles actually advanced,
// including fast-forwarded spans.
func (s *System) Step(n uint64) uint64 {
	if s.released {
		panic("core: Step on a released System")
	}
	if s.stepper == StepperReference {
		return s.stepReference(n)
	}
	return s.stepFast(n)
}

// tick1 simulates exactly one cycle: memory controller, then cores, then
// the epoch sample. Both steppers use it, so modeled behavior cannot
// diverge at the single-cycle level.
func (s *System) tick1(cycle uint64) {
	s.mc.Tick(cycle)
	fin := true
	for _, c := range s.cores {
		c.Tick(cycle)
		fin = fin && c.Done()
	}
	s.finished = fin
	if s.tracer != nil && cycle >= s.traceNext {
		s.traceNext = cycle + s.tracer.Epoch()
		s.emitSample(cycle, false)
	}
}

// stepReference is the retained naive stepper: every cycle is simulated.
func (s *System) stepReference(n uint64) uint64 {
	var done uint64
	for ; done < n && !s.finished; done++ {
		s.cycle++
		s.tick1(s.cycle)
	}
	return done
}

// stepFast ticks cycle by cycle while components make progress, and
// fast-forwards over provably inert spans. After a tick whose progress
// signature matches the previous cycle's, it asks every component for the
// next cycle at which it can change state (NextEvent). If that is more
// than one cycle away, the span in between is inert: the machine state is
// identical at every cycle in it, so per-cycle counter deltas (wait and
// stall counters) are constant. One cycle of the span is simulated for
// real to measure that delta, and the rest is applied in closed form.
//
// Two clamps keep the fast path byte-compatible with the reference: the
// wake never crosses the next trace epoch (samples are always emitted by
// a genuinely simulated cycle), and never exceeds the Step budget (so
// callers that single-step to an exact cycle, like the crash campaign,
// land exactly there).
func (s *System) stepFast(n uint64) uint64 {
	var done uint64
	for done < n && !s.finished {
		s.cycle++
		done++
		s.tick1(s.cycle)
		if s.finished || done >= n {
			break
		}
		busy := false
		for _, c := range s.cores {
			if c.BusyHint() {
				busy = true
				break
			}
		}
		if busy {
			s.lastSig = 0
			continue
		}
		sig := uint64(1)
		for _, c := range s.cores {
			sig = sig*0x100000001B3 + c.ProgressSig()
		}
		if sig != s.lastSig {
			s.lastSig = sig
			continue
		}
		wake := s.nextEvent()
		if wake == 0 {
			continue
		}
		if s.tracer != nil && wake > s.traceNext {
			wake = s.traceNext
		}
		last := wake - 1 // the last provably inert cycle
		if maxLast := s.cycle + (n - done); maxLast < last {
			last = maxLast
		}
		span := last - s.cycle
		if span == 0 {
			continue
		}
		// Measure one inert cycle, then extrapolate the remaining span-1.
		copy(s.statSnap, s.coreStats)
		s.memSnap = s.memStat
		s.cycle++
		done++
		s.tick1(s.cycle)
		if k := span - 1; k > 0 {
			for i := range s.coreStats {
				s.coreStats[i].AddScaledDiff(&s.statSnap[i], k)
			}
			s.memStat.AddScaledDiff(&s.memSnap, k)
			s.cycle += k
			done += k
		}
	}
	return done
}

// nextEvent returns the earliest cycle (strictly after s.cycle) at which
// any component can change state, 0 if some component is active now, and
// ^uint64(0) if nothing is pending anywhere (a stall that only the Step
// budget bounds, exactly like the reference stepper spinning).
func (s *System) nextEvent() uint64 {
	wake := s.mc.NextEvent(s.cycle)
	if wake == 0 {
		return 0
	}
	for _, c := range s.cores {
		w := c.NextEvent(s.cycle)
		if w == 0 {
			return 0
		}
		if w < wake {
			wake = w
		}
	}
	return wake
}

// Run simulates to completion (bounded by maxCycles; 0 means a generous
// default) and returns the report.
func (s *System) Run(maxCycles uint64) (*stats.Report, error) {
	return s.RunContext(context.Background(), maxCycles)
}

// RunContext is Run with cancellation: the context is checked between
// simulation quanta, so a cancelled or deadline-expired context stops a
// long run within ~100k simulated cycles.
func (s *System) RunContext(ctx context.Context, maxCycles uint64) (*stats.Report, error) {
	if maxCycles == 0 {
		maxCycles = 20_000_000_000
	}
	for !s.finished && s.cycle < maxCycles {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: run cancelled at cycle %d (scheme %v): %w", s.cycle, s.scheme, err)
		}
		s.Step(100_000)
	}
	if !s.finished {
		return nil, fmt.Errorf("core: simulation exceeded %d cycles (scheme %v)", maxCycles, s.scheme)
	}
	// Drain residual WPQ contents so NVM write counts are complete. The
	// drain runs on a detached clock: the performance clock (Cycle,
	// Report.Cycles) stays at the core completion time, so later Report or
	// CrashImage calls see undistorted cycle accounting.
	s.mc.ForceDrain(true)
	for s.drainCycles = 0; s.drainCycles < 1_000_000 && !s.mc.WPQEmpty(); {
		s.drainCycles++
		s.mc.Tick(s.cycle + s.drainCycles)
	}
	s.mc.ForceDrain(false)
	rep := s.Report()
	if s.tracer != nil {
		// The final sample is taken after the residual drain, at the
		// report's cycle count, so its cumulative totals match the
		// end-of-run report exactly.
		s.emitSample(rep.Cycles, true)
		if err := s.tracer.Err(); err != nil {
			return nil, fmt.Errorf("core: trace sink failed (scheme %v): %w", s.scheme, err)
		}
	}
	return rep, nil
}

// DrainCycles returns how long the post-completion residual WPQ drain
// took; these cycles are excluded from Cycle() and Report().Cycles.
func (s *System) DrainCycles() uint64 { return s.drainCycles }

// Report snapshots the statistics gathered so far.
func (s *System) Report() *stats.Report {
	r := &stats.Report{
		Label:    s.scheme.String(),
		CoreStat: append([]stats.Core(nil), s.coreStats...),
		MemStat:  s.memStat,
	}
	for _, c := range s.cores {
		if c.Done() && c.DoneCycle() > r.Cycles {
			r.Cycles = c.DoneCycle()
		}
	}
	if r.Cycles == 0 {
		r.Cycles = s.cycle
	}
	return r
}

// Commits returns each core's committed transactions in commit order.
func (s *System) Commits() [][]cpu.Commit {
	out := make([][]cpu.Commit, len(s.cores))
	for i, c := range s.cores {
		out[i] = append([]cpu.Commit(nil), c.Commits...)
	}
	return out
}

// CommittedCounts returns how many transactions each core has committed
// so far, without copying the commit records.
func (s *System) CommittedCounts() []int {
	out := make([]int, len(s.cores))
	for i, c := range s.cores {
		out[i] = len(c.Commits)
	}
	return out
}

// CrashImage extracts the persistent state a power failure at the current
// cycle would leave behind, honoring the scheme's persistency domain.
func (s *System) CrashImage() *nvm.Store {
	return s.mc.CrashImage(s.scheme.ADR())
}

// ADR reports whether the scheme's platform keeps the MC queues in the
// persistency domain (what CrashImage assumes).
func (s *System) ADR() bool { return s.scheme.ADR() }

// CrashImageWith extracts the crash state under an explicit fault model,
// overriding the scheme's nominal persistency domain. The fault-injection
// campaign uses it to model ADR loss and torn line writes.
func (s *System) CrashImageWith(f memctrl.CrashFault) *nvm.Store {
	return s.mc.CrashImageWith(f)
}

// PendingLines lists the line addresses a crash now would offer to a
// CrashFault.Torn hook, in hook-index order.
func (s *System) PendingLines(adr bool) []uint64 {
	return s.mc.PendingLines(adr)
}

// QueueLens returns the current WPQ and LPQ occupancy (monitoring).
func (s *System) QueueLens() (wpq, lpq int) {
	return s.mc.WPQLen(), s.mc.LPQLen()
}

// PersistSig summarizes the persist-relevant machine state (functional
// store mutations plus pending queue contents): cycles with equal
// signatures produce byte-identical crash images under every fault
// model. Exhaustive crash-point sweeps use it to classify one
// representative cycle per signature.
func (s *System) PersistSig() uint64 { return s.mc.PersistSig() }
