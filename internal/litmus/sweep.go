package litmus

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/crashcampaign"
)

// Config configures a litmus sweep.
type Config struct {
	// Programs defaults to the full Enumerate() grammar.
	Programs []Program
	// Schemes defaults to every failure-safe scheme.
	Schemes []core.Scheme
	// Faults defaults to the full model set (clean, torn, adrloss,
	// corrupt); FaultClean is always included.
	Faults []crashcampaign.Fault
	// Seed feeds the per-injection fault randomness.
	Seed int64
	// Workers bounds concurrent case sweeps (0 = GOMAXPROCS).
	Workers int
	// Stepper selects the cycle-advance strategy (zero value = fast).
	// The report is byte-identical under either.
	Stepper core.Stepper
	// ArtifactDir, when set, receives one reproducer directory per
	// divergence.
	ArtifactDir string
}

func (c *Config) fill() {
	if len(c.Programs) == 0 {
		c.Programs = Enumerate()
	}
	if len(c.Schemes) == 0 {
		c.Schemes = core.FailureSafeSchemes()
	}
	if len(c.Faults) == 0 {
		c.Faults = crashcampaign.AllFaults
	} else {
		c.Faults = crashcampaign.NormalizeFaults(c.Faults)
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

// SimConfig returns the machine configuration litmus programs run under:
// the paper's machine with the per-transaction harness ALU padding
// zeroed, so a 2–4 store program's run is a few thousand cycles and an
// exhaustive per-cycle sweep stays cheap.
func SimConfig(threads int) config.Config {
	cfg := config.Default()
	cfg.Cores = threads
	cfg.Core.AluPerTxn = 0
	return cfg
}

// Run sweeps every (program, scheme) case and assembles the
// deterministic report: cases are indexed up front, executed by a worker
// pool, and emitted in index order, so the bytes never depend on worker
// count or completion order.
func Run(ctx context.Context, c Config) (*Report, error) {
	c.fill()
	type caseKey struct {
		prog   Program
		scheme core.Scheme
	}
	var keys []caseKey
	for _, p := range c.Programs {
		for _, s := range c.Schemes {
			keys = append(keys, caseKey{p, s})
		}
	}

	results := make([]CaseReport, len(keys))
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	sem := make(chan struct{}, c.Workers)
	for i, k := range keys {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(i int, k caseKey) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if ctx.Err() != nil {
				errs[i] = ctx.Err()
				return
			}
			results[i], errs[i] = runCase(ctx, &c, k.prog, k.scheme)
		}(i, k)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("litmus: case %s/%s: %w", keys[i].prog, keys[i].scheme, err)
		}
	}

	rep := &Report{
		Suite: Info{
			Seed:              c.Seed,
			Programs:          len(c.Programs),
			ConfigFingerprint: SimConfig(1).Fingerprint(),
		},
		Cases: results,
	}
	for _, s := range c.Schemes {
		rep.Suite.Schemes = append(rep.Suite.Schemes, s.String())
	}
	for _, f := range c.Faults {
		rep.Suite.Faults = append(rep.Suite.Faults, f.String())
	}
	for i := range rep.Cases {
		cr := &rep.Cases[i]
		rep.Totals.Cases++
		rep.Totals.Injections += cr.Injections
		rep.Totals.Add(cr.Tally)
		rep.Totals.Divergences += len(cr.Divergences)
	}
	return rep, nil
}

// persistKey dedups sweep cycles: equal signatures AND equal committed
// counts guarantee the crash image, the fault target universe, and the
// axiomatic window are all identical, so one representative cycle stands
// for the run. (Signature alone is not enough — a transaction can retire
// without moving persist state, which shifts the permitted window.)
type persistKey struct {
	sig       uint64
	committed [2]int
}

// runCase sweeps one (program, scheme) pair: compile it into a Target,
// then single-step the machine from cycle 1 to completion, classifying
// every applicable fault at each distinct persist state and minimizing
// the first divergence per fault.
func runCase(ctx context.Context, c *Config, prog Program, scheme core.Scheme) (CaseReport, error) {
	cr := CaseReport{Program: prog.Name(), Scheme: scheme.String()}
	compiled, err := prog.Compile()
	if err != nil {
		return cr, err
	}
	tgt := compiled.Target(scheme)
	tgt.Seed, tgt.Stepper = c.Seed, c.Stepper
	sys, err := tgt.NewSystem()
	if err != nil {
		return cr, err
	}
	defer sys.Release()

	var faults []crashcampaign.Fault
	for _, f := range c.Faults {
		if f.AppliesTo(scheme) {
			faults = append(faults, f)
		}
	}
	diverged := make(map[crashcampaign.Fault]bool)
	seen := make(map[persistKey]bool)
	for !sys.Finished() {
		sys.Step(1)
		committed := sys.CommittedCounts()
		key := persistKey{sig: sys.PersistSig()}
		copy(key.committed[:], committed)
		if seen[key] {
			continue
		}
		seen[key] = true
		for _, f := range faults {
			inj := tgt.Injection(f, sys.Cycle())
			out, _ := tgt.Classify(inj.Apply(sys, tgt.Sim.Cores), f, committed)
			cr.Injections++
			cr.Count(out)
			if out != crashcampaign.OutcomeFailed || diverged[f] {
				continue
			}
			diverged[f] = true
			m, err := tgt.Minimize(ctx, inj, out, c.ArtifactDir)
			if err != nil {
				return cr, err
			}
			cr.Divergences = append(cr.Divergences, Divergence{Fault: f.String(), Minimized: *m})
		}
	}
	cr.TotalCycles = sys.Cycle()
	cr.States = len(seen)
	return cr, nil
}
