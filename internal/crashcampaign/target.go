package crashcampaign

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/logging"
	"repro/internal/nvm"
	"repro/internal/recovery"
	"repro/internal/workload"
)

// Expectation judges a recovered crash image: nil when the image is a
// state the program may be in after a crash with the given per-thread
// committed transaction counts, otherwise the first violation.
type Expectation func(img *nvm.Store, committed []int) error

// OracleExpectation is a Table-2 benchmark's expectation: the recovery
// oracle's transaction-prefix check, in its software-logging form for
// PMEM and PMEM+pcommit (which do not log writes to fresh allocations).
func OracleExpectation(wl *workload.Workload, scheme core.Scheme) Expectation {
	o := recovery.NewOracle(wl)
	verify := o.VerifyPrefix
	if scheme == core.PMEM || scheme == core.PMEMPcommit {
		verify = o.VerifyPrefixSW
	}
	return func(img *nvm.Store, committed []int) error {
		_, err := verify(img, committed)
		return err
	}
}

// Target is one program — a Table-2 benchmark or a litmus program — bound
// to a scheme, a machine, a seed and a stepper, plus the expectation its
// recovered crash images are judged against. The campaign and the litmus
// sweep each drive their own crash-point loop over a Target; everything
// else about an injection goes through its methods: building the System,
// deriving the injection's seed, classifying the crash image, minimizing
// a failure, and writing and replaying its reproducer artifact.
type Target struct {
	// Source names the program: a benchmark abbreviation or a litmus
	// program name. Artifacts record it so the target can be rebuilt.
	Source string
	Scheme core.Scheme
	// Params is the workload shape the program was built with.
	Params workload.Params
	// Sim is the machine; Sim.Cores is the program's thread count.
	Sim config.Config
	// Seed is the campaign seed every injection seed derives from.
	Seed int64
	// Stepper selects the cycle-advance strategy; results are identical
	// under either.
	Stepper core.Stepper

	expect Expectation
	traces []*isa.Trace
	init   *nvm.Store
}

// NewTarget binds a recorded workload to the scheme by generating the
// scheme's traces for sim, whose Cores must be the workload's thread
// count.
func NewTarget(source string, scheme core.Scheme, sim config.Config, wl *workload.Workload, expect Expectation) (*Target, error) {
	traces, err := logging.Generate(wl, scheme, sim)
	if err != nil {
		return nil, err
	}
	return &Target{Source: source, Scheme: scheme, Params: wl.Params, Sim: sim,
		expect: expect, traces: traces, init: wl.InitImage}, nil
}

// NewSystem builds a fresh machine running the program at cycle 0. The
// caller must Release it.
func (t *Target) NewSystem() (*core.System, error) {
	sys, err := core.NewSystem(t.Sim, t.Scheme, t.traces, t.init)
	if err != nil {
		return nil, err
	}
	sys.SetStepper(t.Stepper)
	return sys, nil
}

// SystemAt builds a fresh machine and runs it to the cycle (or to the end
// of the program, if that comes first). The caller must Release it.
func (t *Target) SystemAt(cycle uint64) (*core.System, error) {
	sys, err := t.NewSystem()
	if err != nil {
		return nil, err
	}
	stepTo(sys, cycle)
	return sys, nil
}

// stepTo advances the system to the cycle (or the end of the run).
func stepTo(sys *core.System, cycle uint64) {
	if cycle > sys.Cycle() && !sys.Finished() {
		sys.Step(cycle - sys.Cycle())
	}
}

// Injection is the injection of fault f at the cycle. Its seed hashes
// (campaign seed, source, scheme, fault, cycle), so the fault pattern is
// fixed by the injection's identity alone.
func (t *Target) Injection(f Fault, cycle uint64) Injection {
	return Injection{Fault: f, Cycle: cycle,
		Seed: InjectionSeed(t.Seed, t.Source, t.Scheme.String(), f.String(), fmt.Sprint(cycle))}
}

// Classify runs the scheme's recovery over the crash image (mutating it
// into the recovered state), judges the result by the expectation, and
// maps it through the expectation matrix.
func (t *Target) Classify(img *nvm.Store, fault Fault, committed []int) (Outcome, string) {
	_, rerr := recovery.Recover(img, t.Scheme, t.Sim.Cores)
	if rerr != nil {
		if !recovery.IsDetectedCorruption(rerr) {
			return OutcomeFailed, "recovery error: " + rerr.Error()
		}
		if fault == FaultClean || ExpectSafe(t.Scheme, fault) {
			// Nominal operation (or a fault inside the scheme's
			// guarantees) must never leave a log recovery rejects.
			return OutcomeFailed, "corruption detected in expected-safe run: " + rerr.Error()
		}
		if !t.Scheme.Ordering().DetectsCorruption {
			return OutcomeFailed, "scheme declares no corruption detection yet reported: " + rerr.Error()
		}
		return OutcomeDetected, rerr.Error()
	}
	if err := t.expect(img, committed); err != nil {
		switch {
		case ExpectSafe(t.Scheme, fault):
			return OutcomeFailed, err.Error()
		case fault == FaultCorrupt && t.Scheme.FailureSafe():
			// Recovery accepted a corrupted log and produced a wrong
			// state: the one outcome the integrity layer exists to
			// prevent.
			return OutcomeFailed, "silent corruption accepted: " + err.Error()
		default:
			return OutcomeVulnerable, err.Error()
		}
	}
	return OutcomeVerified, ""
}

// evaluate replays the program from cycle 0 to the injection's cycle and
// classifies the injection there.
func (t *Target) evaluate(inj Injection) (Outcome, string, error) {
	sys, err := t.SystemAt(inj.Cycle)
	if err != nil {
		return "", "", err
	}
	defer sys.Release()
	out, detail := t.Classify(inj.Apply(sys, t.Sim.Cores), inj.Fault, sys.CommittedCounts())
	return out, detail, nil
}
