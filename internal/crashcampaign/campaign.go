package crashcampaign

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/logging"
	"repro/internal/nvm"
	"repro/internal/recovery"
	"repro/internal/workload"
)

// chunkPoints is how many crash points one engine.Do slot walks with a
// single replayed System. The size is fixed (never derived from the
// worker count) so the chunk boundaries — and with them every simulation
// — are identical at any parallelism.
const chunkPoints = 8

// MinimizeMode selects which outcomes get minimized.
type MinimizeMode int

const (
	// MinimizeFailed (the default) minimizes OutcomeFailed injections:
	// expected-safe combinations that broke.
	MinimizeFailed MinimizeMode = iota
	// MinimizeAll also minimizes OutcomeVulnerable injections, turning
	// documented exposures into small reproducers too.
	MinimizeAll
	// MinimizeOff disables minimization.
	MinimizeOff
)

// Config describes a campaign.
type Config struct {
	// Benches and Schemes form the tuple matrix; empty defaults to the
	// Table 2 benchmarks × the failure-safe schemes.
	Benches []workload.Kind
	Schemes []core.Scheme
	// Params is the workload shape used for every benchmark.
	Params workload.Params
	// Sim is the machine configuration; Cores is overridden with
	// Params.Threads.
	Sim config.Config
	// Sweep is the number of systematically spaced crash points per tuple;
	// Rand adds seeded-random points on top.
	Sweep int
	Rand  int
	// Faults lists the fault models to inject at every point (FaultClean
	// is implied if absent).
	Faults []Fault
	// Seed drives crash-point choice and per-injection randomness.
	Seed int64
	// Minimize selects which outcomes are minimized.
	Minimize MinimizeMode
	// ArtifactDir, when set, receives one reproducer directory per
	// minimized failure.
	ArtifactDir string
	// Engine executes all simulation work: the full-length reference runs
	// (memoized jobs shared with any experiments on the same engine) and
	// the sweep chunks (bounded by the same worker pool).
	Engine *engine.Engine
	// RecoverCmd names the replay binary in generated repro command lines;
	// empty means "proteus-recover".
	RecoverCmd string
	// Stepper selects the cycle-advance strategy for the sweep systems
	// (the zero value is the event-driven fast stepper). The full-length
	// reference runs executed through Engine follow the engine's own
	// Stepper configuration instead.
	Stepper core.Stepper
}

// Normalize fills defaulted fields (benchmark matrix, fault list, sweep
// size, core count) exactly the way Run does. It is idempotent, and it is
// what makes a campaign's identity transportable: the cluster layer
// normalizes once on the coordinator and once per tuple on the workers,
// and both sides end up with the same Info and config fingerprint a local
// Run would produce.
func (c *Config) Normalize() { c.fill() }

func (c *Config) fill() {
	if len(c.Benches) == 0 {
		c.Benches = workload.Table2
	}
	if len(c.Schemes) == 0 {
		for _, s := range core.Schemes {
			if s.FailureSafe() {
				c.Schemes = append(c.Schemes, s)
			}
		}
	}
	if len(c.Faults) == 0 {
		c.Faults = []Fault{FaultClean}
	}
	if c.Sweep <= 0 && c.Rand <= 0 {
		c.Sweep = 16
	}
	if c.RecoverCmd == "" {
		c.RecoverCmd = "proteus-recover"
	}
	c.Sim.Cores = c.Params.Threads
}

// tupleCtx holds everything needed to replay one (bench, scheme) tuple to
// an arbitrary cycle. Traces and the workload are immutable during runs,
// so concurrent chunks share them and build private Systems.
type tupleCtx struct {
	camp    *Config
	bench   workload.Kind
	scheme  core.Scheme
	cfg     config.Config
	wl      *workload.Workload
	traces  []*isa.Trace
	oracle  *recovery.Oracle
	threads int
	sw      bool
	job     engine.Job
}

// newSystem builds a fresh machine for the tuple.
func (tc *tupleCtx) newSystem() (*core.System, error) {
	sys, err := core.NewSystem(tc.cfg, tc.scheme, tc.traces, tc.wl.InitImage)
	if err != nil {
		return nil, err
	}
	sys.SetStepper(tc.camp.Stepper)
	return sys, nil
}

// stepTo advances the system to the cycle (or the end of the run).
func stepTo(sys *core.System, cycle uint64) {
	if cycle > sys.Cycle() && !sys.Finished() {
		sys.Step(cycle - sys.Cycle())
	}
}

// classify runs recovery + oracle verification on the image and maps the
// result through the expectation matrix.
func (tc *tupleCtx) classify(img *nvm.Store, fault Fault, committed []int) (Outcome, string) {
	_, rerr := recovery.Recover(img, tc.scheme, tc.threads)
	if rerr != nil {
		if !recovery.IsDetectedCorruption(rerr) {
			return OutcomeFailed, "recovery error: " + rerr.Error()
		}
		if fault == FaultClean || expectSafe(tc.scheme, fault) {
			// Nominal operation (or a fault inside the scheme's
			// guarantees) must never leave a log recovery rejects.
			return OutcomeFailed, "corruption detected in expected-safe run: " + rerr.Error()
		}
		return OutcomeDetected, rerr.Error()
	}
	verify := tc.oracle.VerifyPrefix
	if tc.sw {
		verify = tc.oracle.VerifyPrefixSW
	}
	if _, verr := verify(img, committed); verr != nil {
		switch {
		case expectSafe(tc.scheme, fault):
			return OutcomeFailed, verr.Error()
		case fault == FaultCorrupt && tc.scheme.FailureSafe():
			// Recovery accepted a corrupted log and produced a wrong
			// state: the one outcome the integrity layer exists to
			// prevent.
			return OutcomeFailed, "silent corruption accepted: " + verr.Error()
		default:
			return OutcomeVulnerable, verr.Error()
		}
	}
	return OutcomeVerified, ""
}

// evaluateAt replays the tuple to the cycle and classifies one injection
// there. The minimizer's predicate.
func (tc *tupleCtx) evaluateAt(inj injection) (Outcome, string, error) {
	sys, err := tc.newSystem()
	if err != nil {
		return "", "", err
	}
	defer sys.Release()
	stepTo(sys, inj.cycle)
	out, detail := tc.classify(buildImage(sys, tc.threads, inj), inj.fault, sys.CommittedCounts())
	return out, detail, nil
}

// crashPoints computes the tuple's crash points: Sweep evenly spaced
// cycles plus Rand seeded-random ones, deduplicated and sorted.
func crashPoints(total uint64, sweep, rnd int, seed uint64) []uint64 {
	if total == 0 {
		return nil
	}
	seen := make(map[uint64]bool)
	var out []uint64
	add := func(p uint64) {
		if p > 0 && p <= total && !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for i := 1; i <= sweep; i++ {
		add(total * uint64(i) / uint64(sweep+1))
	}
	for i := 0; i < rnd; i++ {
		add(1 + mix(seed, 0x5EED, uint64(i))%total)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Run executes the campaign and assembles its deterministic report.
func Run(ctx context.Context, c Config) (*Report, error) {
	c.fill()
	if c.Engine == nil {
		return nil, fmt.Errorf("crashcampaign: Config.Engine is required")
	}

	type tupleSlot struct {
		rep *TupleReport
		err error
	}
	slots := make([]tupleSlot, len(c.Benches)*len(c.Schemes))
	var wg sync.WaitGroup
	for bi, bench := range c.Benches {
		for si, scheme := range c.Schemes {
			bi, si, bench, scheme := bi, si, bench, scheme
			wg.Add(1)
			go func() {
				defer wg.Done()
				rep, err := runTuple(ctx, &c, bench, scheme)
				slots[bi*len(c.Schemes)+si] = tupleSlot{rep, err}
			}()
		}
	}
	wg.Wait()

	tuples := make([]*TupleReport, 0, len(slots))
	for _, s := range slots {
		if s.err != nil {
			return nil, s.err
		}
		tuples = append(tuples, s.rep)
	}
	return AssembleReport(c, tuples), nil
}

// AssembleReport builds the campaign report from per-tuple reports listed
// in c.Benches × c.Schemes matrix order. c must be normalized. It is the
// single assembly path for local and distributed campaigns: Run uses it
// after sweeping in-process, and the cluster coordinator uses it after
// gathering TupleReports from workers — which is what makes the two
// byte-identical.
func AssembleReport(c Config, tuples []*TupleReport) *Report {
	rep := &Report{
		Campaign: Info{
			Seed:              c.Seed,
			Sweep:             c.Sweep,
			Rand:              c.Rand,
			Params:            c.Params,
			ConfigFingerprint: c.Sim.Fingerprint(),
		},
	}
	for _, f := range c.Faults {
		rep.Campaign.Faults = append(rep.Campaign.Faults, f.String())
	}
	for _, tr := range tuples {
		rep.Tuples = append(rep.Tuples, *tr)
		rep.Totals.Tuples++
		rep.Totals.Injections += len(tr.Injections)
		rep.Totals.Verified += tr.Verified
		rep.Totals.Detected += tr.Detected
		rep.Totals.Vulnerable += tr.Vulnerable
		rep.Totals.Failed += tr.Failed
		for _, ir := range tr.Injections {
			if ir.Minimized != nil {
				rep.Totals.Minimized++
			}
		}
	}
	return rep
}

// RunTuple sweeps one (bench, scheme) pair of the campaign and returns
// its report — the unit of work a cluster worker executes. The config is
// normalized here, so a worker can hand a deserialized single-tuple
// Config straight in; Engine is required.
func RunTuple(ctx context.Context, c Config, bench workload.Kind, scheme core.Scheme) (*TupleReport, error) {
	c.fill()
	if c.Engine == nil {
		return nil, fmt.Errorf("crashcampaign: Config.Engine is required")
	}
	return runTuple(ctx, &c, bench, scheme)
}

// runTuple sweeps one (bench, scheme) pair.
func runTuple(ctx context.Context, c *Config, bench workload.Kind, scheme core.Scheme) (*TupleReport, error) {
	eng := c.Engine
	wl, err := eng.Workload(ctx, bench, c.Params)
	if err != nil {
		return nil, fmt.Errorf("crashcampaign: %v: %w", bench, err)
	}
	job := engine.Job{Kind: bench, Params: c.Params, Scheme: scheme, Config: c.Sim}
	full, err := eng.Run(ctx, job)
	if err != nil {
		return nil, fmt.Errorf("crashcampaign: %v/%v reference run: %w", bench, scheme, err)
	}
	traces, err := logging.Generate(wl, scheme, c.Sim)
	if err != nil {
		return nil, fmt.Errorf("crashcampaign: %v/%v: %w", bench, scheme, err)
	}
	tc := &tupleCtx{
		camp: c, bench: bench, scheme: scheme, cfg: c.Sim,
		wl: wl, traces: traces, oracle: recovery.NewOracle(wl),
		threads: c.Sim.Cores,
		sw:      scheme == core.PMEM || scheme == core.PMEMPcommit,
		job:     job,
	}

	total := full.Report.Cycles
	points := crashPoints(total, c.Sweep, c.Rand,
		seedFor(c.Seed, bench.Abbrev(), scheme.String(), "points"))
	var faults []Fault
	for _, f := range c.Faults {
		if f.appliesTo(scheme) {
			faults = append(faults, f)
		}
	}

	results := make([]InjectionResult, len(points)*len(faults))
	var wg sync.WaitGroup
	errCh := make(chan error, 1)
	fail := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}
	for lo := 0; lo < len(points); lo += chunkPoints {
		hi := lo + chunkPoints
		if hi > len(points) {
			hi = len(points)
		}
		lo, hi := lo, hi
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := eng.Do(ctx, func(ctx context.Context) error {
				sys, err := tc.newSystem()
				if err != nil {
					return err
				}
				defer sys.Release()
				for pi := lo; pi < hi; pi++ {
					if err := ctx.Err(); err != nil {
						return err
					}
					stepTo(sys, points[pi])
					committed := sys.CommittedCounts()
					for fi, f := range faults {
						inj := injection{
							fault: f,
							cycle: points[pi],
							seed:  seedFor(c.Seed, bench.Abbrev(), scheme.String(), f.String(), fmt.Sprint(points[pi])),
						}
						out, detail := tc.classify(buildImage(sys, tc.threads, inj), f, committed)
						results[pi*len(faults)+fi] = InjectionResult{
							Cycle: points[pi], Fault: f.String(),
							Outcome: out, Detail: detail,
						}
					}
				}
				return nil
			})
			if err != nil {
				fail(fmt.Errorf("crashcampaign: %v/%v points[%d:%d]: %w", bench, scheme, lo, hi, err))
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return nil, err
	default:
	}

	// Minimize failures (and, if asked, vulnerabilities) in parallel;
	// each minimization is self-contained and lands at a fixed index.
	if c.Minimize != MinimizeOff {
		var mwg sync.WaitGroup
		for i := range results {
			r := &results[i]
			if r.Outcome != OutcomeFailed && !(c.Minimize == MinimizeAll && r.Outcome == OutcomeVulnerable) {
				continue
			}
			mwg.Add(1)
			go func() {
				defer mwg.Done()
				err := eng.Do(ctx, func(ctx context.Context) error {
					m, err := tc.minimize(ctx, *r)
					if err != nil {
						return err
					}
					r.Minimized = m
					return nil
				})
				if err != nil {
					fail(fmt.Errorf("crashcampaign: %v/%v minimizing %s@%d: %w", bench, scheme, r.Fault, r.Cycle, err))
				}
			}()
		}
		mwg.Wait()
		select {
		case err := <-errCh:
			return nil, err
		default:
		}
	}

	rep := &TupleReport{
		Bench:       bench.Abbrev(),
		Scheme:      scheme.String(),
		Fingerprint: job.Fingerprint(),
		TotalCycles: total,
		Points:      points,
		Injections:  results,
	}
	for _, r := range results {
		rep.count(r.Outcome)
	}
	return rep, nil
}
