package crashcampaign

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/enum"
	"repro/internal/nvm"
	"repro/internal/workload"
)

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

var minimizeModes = enum.Names[MinimizeMode]{
	What:   "minimize mode",
	Values: []MinimizeMode{MinimizeFailed, MinimizeAll, MinimizeOff},
}

func (m MinimizeMode) String() string {
	if names := [...]string{"failed", "all", "off"}; m >= 0 && int(m) < len(names) {
		return names[m]
	}
	return fmt.Sprintf("MinimizeMode(%d)", int(m))
}

// MarshalText encodes a minimize mode by name.
func (m MinimizeMode) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText resolves a minimize mode name (failed, all, off),
// case-insensitively.
func (m *MinimizeMode) UnmarshalText(text []byte) error { return minimizeModes.Unmarshal(m, text) }

// Config describes a campaign. It is the one definition of a campaign:
// proteus-crash and serve's "campaign" spec start from Default, serve
// names a campaign by its JSON encoding, and that encoding narrowed to
// one (bench, scheme) pair is the cluster's campaign-tuple payload.
// ArtifactDir and Engine belong to one process and do not travel.
type Config struct {
	// Benches and Schemes form the tuple matrix; empty defaults to the
	// Table 2 benchmarks × the failure-safe schemes.
	Benches []workload.Kind `json:"benches"`
	Schemes []core.Scheme   `json:"schemes"`
	// Params is the workload shape used for every benchmark.
	Params workload.Params `json:"params"`
	// Sim is the machine configuration; Cores is overridden with
	// Params.Threads.
	Sim config.Config `json:"sim"`
	// Sweep is the number of systematically spaced crash points per tuple;
	// Rand adds seeded-random points on top.
	Sweep int `json:"sweep"`
	Rand  int `json:"rand"`
	// Faults lists the fault models to inject at every point; Normalize
	// puts FaultClean first even when the list leaves it out.
	Faults []Fault `json:"faults"`
	// Seed drives crash-point choice and per-injection randomness.
	Seed int64 `json:"seed"`
	// Minimize selects which outcomes are minimized.
	Minimize MinimizeMode `json:"minimize"`
	// ArtifactDir, when set, receives one reproducer directory per
	// minimized failure. It stays local, so a tuple swept on a cluster
	// worker reports the same bytes as a local run.
	ArtifactDir string `json:"-"`
	// Engine executes all simulation work: the full-length reference runs
	// (memoized jobs shared with any experiments on the same engine) and
	// one forward sweep per tuple (bounded by the same worker pool; its
	// JobTimeout limits each tuple sweep). The sweeps step with the
	// engine's Stepper.
	Engine *engine.Engine `json:"-"`
}

// Default returns proteus-crash's campaign, which every campaign a flag
// or request describes starts from. Its matrix is empty, so Normalize
// fills in the Table 2 benchmarks × the failure-safe schemes.
func Default() Config {
	return Config{
		Params: workload.Params{Threads: 2, InitOps: 256, SimOps: 40, Seed: 11,
			SSItems: 256, SSStrSize: 256, ListNodes: 4, ListElems: 64},
		Sim:    config.Default(),
		Sweep:  64,
		Faults: []Fault{FaultClean},
		Seed:   1,
	}
}

// Normalize fills defaulted fields (benchmark matrix, fault list, sweep
// size, core count) exactly the way Run does. It is idempotent, and it is
// what makes a campaign's identity transportable: the cluster layer
// normalizes once on the coordinator and once per tuple on the workers,
// and both sides end up with the same Info and config fingerprint a local
// Run would produce.
func (c *Config) Normalize() {
	if len(c.Benches) == 0 {
		c.Benches = workload.Table2
	}
	if len(c.Schemes) == 0 {
		c.Schemes = core.FailureSafeSchemes()
	}
	c.Faults = NormalizeFaults(c.Faults)
	if c.Sweep <= 0 && c.Rand <= 0 {
		c.Sweep = 16
	}
	c.Sim.Cores = c.Params.Threads
}

// MaxPoints bounds a tuple's crash points, Sweep plus Rand. The densest
// sweep in use is 220 points (the minimizer recipe CI runs).
const MaxPoints = 4096

// Validate reports a campaign whose crash points or workload shape is out
// of bounds: more than MaxPoints points per tuple, or Params that Build
// refuses for one of the benchmarks. It builds nothing, so a job server
// can refuse such a campaign at admission.
func (c *Config) Validate() error {
	sweep, rnd := max(c.Sweep, 0), max(c.Rand, 0)
	if sweep > MaxPoints || rnd > MaxPoints-sweep {
		return fmt.Errorf("crashcampaign: at most %d crash points per tuple (sweep %d, rand %d)", MaxPoints, c.Sweep, c.Rand)
	}
	for _, k := range c.Benches {
		if err := c.Params.Validate(k); err != nil {
			return err
		}
	}
	return nil
}

// ready normalizes c for a run and checks it can run.
func (c *Config) ready() error {
	c.Normalize()
	if c.Engine == nil {
		return fmt.Errorf("crashcampaign: Config.Engine is required")
	}
	return c.Validate()
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
	if err := c.ready(); err != nil {
		return nil, err
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
		rep.Totals.Add(tr.Tally)
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
	if err := c.ready(); err != nil {
		return nil, err
	}
	return runTuple(ctx, &c, bench, scheme)
}

// runTuple sweeps one (bench, scheme) pair: after the memoized reference
// run fixes the crash points, one worker slot builds the target and walks
// a single machine forward through every point.
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

	total := full.Report.Cycles
	points := crashPoints(total, c.Sweep, c.Rand,
		InjectionSeed(c.Seed, bench.Abbrev(), scheme.String(), "points"))
	var faults []Fault
	for _, f := range c.Faults {
		if f.AppliesTo(scheme) {
			faults = append(faults, f)
		}
	}

	results := make([]InjectionResult, len(points)*len(faults))
	var tgt *Target
	err = eng.Do(ctx, func(ctx context.Context) error {
		// Built inside the slot, so at most Workers oracles (and sweeping
		// machines) are alive at once.
		tgt = NewTarget(bench.Abbrev(), scheme, c.Sim, wl, OracleExpectation(wl, scheme))
		tgt.Seed, tgt.Stepper = c.Seed, eng.Stepper()
		return tgt.sweep(ctx, points, faults, func(i int, inj Injection, img *nvm.Store, committed []int) {
			out, detail := tgt.Classify(img, inj.Fault, committed)
			results[i] = InjectionResult{Cycle: inj.Cycle, Fault: inj.Fault.String(), Outcome: out, Detail: detail}
		})
	})
	if err != nil {
		return nil, fmt.Errorf("crashcampaign: %v/%v: %w", bench, scheme, err)
	}

	// Minimize failures (and, if asked, vulnerabilities) in parallel;
	// each minimization is self-contained and lands at a fixed index.
	if c.Minimize != MinimizeOff {
		errCh := make(chan error, 1)
		fail := func(err error) {
			select {
			case errCh <- err:
			default:
			}
		}
		var mwg sync.WaitGroup
		for i := range results {
			r := &results[i]
			if r.Outcome != OutcomeFailed && !(c.Minimize == MinimizeAll && r.Outcome == OutcomeVulnerable) {
				continue
			}
			inj := tgt.Injection(faults[i%len(faults)], r.Cycle)
			mwg.Add(1)
			go func() {
				defer mwg.Done()
				err := eng.Do(ctx, func(ctx context.Context) error {
					m, err := tgt.Minimize(ctx, inj, r.Outcome, c.ArtifactDir)
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
		rep.Count(r.Outcome)
	}
	return rep, nil
}
