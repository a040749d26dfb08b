package crashcampaign

import (
	"context"
	"fmt"
)

// shrinkBudget caps predicate evaluations during mask shrinking; the
// bisection adds at most ~log2(total cycles) more. Fixed so minimization
// cost is bounded and deterministic.
const shrinkBudget = 40

// badFor reports whether a re-evaluated outcome still exhibits the
// failure being minimized. A vulnerable injection that upgrades to failed
// at an earlier cycle still reproduces.
func badFor(orig, got Outcome) bool {
	return got == OutcomeFailed || (orig == OutcomeVulnerable && got == OutcomeVulnerable)
}

// minimize reduces a failed injection: bisect the crash cycle down to the
// earliest failing step (with the fault pattern pinned by the original
// seed), then shrink the fault mask to a small subset that still fails,
// and — when the campaign has an artifact dir — dump a reproducer.
func (tc *tupleCtx) minimize(ctx context.Context, r InjectionResult) (*Minimized, error) {
	fault, err := parseFault(r.Fault)
	if err != nil {
		return nil, err
	}
	seed := seedFor(tc.camp.Seed, tc.bench.Abbrev(), tc.scheme.String(), fault.String(), fmt.Sprint(r.Cycle))
	base := injection{fault: fault, cycle: r.Cycle, seed: seed}

	eval := func(inj injection) (bool, error) {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		out, _, err := tc.evaluateAt(inj)
		if err != nil {
			return false, err
		}
		return badFor(r.Outcome, out), nil
	}

	// Bisect [0, cycle] for the earliest failing cycle. Cycle 0 (nothing
	// executed, nothing pending) passes trivially, the original cycle
	// fails by construction; the search maintains pass(lo) / fail(hi).
	lo, hi := uint64(0), r.Cycle
	if bad, err := eval(injection{fault: fault, cycle: 0, seed: seed}); err != nil {
		return nil, err
	} else if bad {
		hi = 0
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		bad, err := eval(injection{fault: fault, cycle: mid, seed: seed})
		if err != nil {
			return nil, err
		}
		if bad {
			hi = mid
		} else {
			lo = mid
		}
	}
	base.cycle = hi

	m := &Minimized{Cycle: base.cycle, OriginalCycle: r.Cycle}

	// Shrink the fault mask for the fault models that have one.
	if fault == FaultTorn || fault == FaultCorrupt {
		n, err := tc.maskTargetsAt(base.cycle, fault)
		if err != nil {
			return nil, err
		}
		m.Targets = n
		if n > 0 {
			mask, err := tc.shrinkMask(base, r.Outcome, n)
			if err != nil {
				return nil, err
			}
			base.mask = mask
			m.Mask = mask
		}
	}

	// Record the failure as it presents at the minimized point.
	out, detail, err := tc.evaluateAt(base)
	if err != nil {
		return nil, err
	}
	m.Outcome, m.Detail = out, detail

	if tc.camp.ArtifactDir != "" {
		dir, repro, err := tc.writeArtifact(base, r, m)
		if err != nil {
			return nil, err
		}
		m.Artifact, m.Repro = dir, repro
	}
	return m, nil
}

// maskTargetsAt replays the tuple to the cycle and counts the fault's
// mask targets there.
func (tc *tupleCtx) maskTargetsAt(cycle uint64, fault Fault) (int, error) {
	sys, err := tc.newSystem()
	if err != nil {
		return 0, err
	}
	defer sys.Release()
	stepTo(sys, cycle)
	return maskTargets(sys, tc.threads, fault), nil
}

// shrinkMask greedily removes chunks of the [0, n) target mask while the
// failure persists (a ddmin-style pass with a fixed evaluation budget).
func (tc *tupleCtx) shrinkMask(base injection, orig Outcome, n int) ([]int, error) {
	mask := make([]int, n)
	for i := range mask {
		mask[i] = i
	}
	budget := shrinkBudget
	gran := 2
	for len(mask) >= 2 && budget > 0 {
		chunk := (len(mask) + gran - 1) / gran
		reduced := false
		for start := 0; start < len(mask) && budget > 0; start += chunk {
			end := start + chunk
			if end > len(mask) {
				end = len(mask)
			}
			cand := make([]int, 0, len(mask)-(end-start))
			cand = append(cand, mask[:start]...)
			cand = append(cand, mask[end:]...)
			budget--
			out, _, err := tc.evaluateAt(injection{fault: base.fault, cycle: base.cycle, seed: base.seed, mask: cand})
			if err != nil {
				return nil, err
			}
			if badFor(orig, out) {
				mask = cand
				if gran > 2 {
					gran--
				}
				reduced = true
				break
			}
		}
		if !reduced {
			if gran >= len(mask) {
				break
			}
			gran *= 2
			if gran > len(mask) {
				gran = len(mask)
			}
		}
	}
	return mask, nil
}

// parseFault maps a fault name back to its model.
func parseFault(name string) (Fault, error) {
	for f, n := range faultNames {
		if n == name {
			return f, nil
		}
	}
	return 0, fmt.Errorf("crashcampaign: unknown fault %q", name)
}
