package crashcampaign

import "context"

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

// Minimize reduces an injection classified orig: it bisects the crash
// cycle down to the earliest failing step (the injection's seed stays
// pinned, so the fault pattern is fixed while the crash point moves),
// shrinks the fault mask to a small subset that still fails, and — when
// dir is set — dumps the result as a reproducer artifact under dir.
func (t *Target) Minimize(ctx context.Context, inj Injection, orig Outcome, dir string) (*Minimized, error) {
	bad := func(c Injection) (bool, error) {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		out, _, err := t.evaluate(c)
		return badFor(orig, out), err
	}
	at := func(cycle uint64) Injection {
		return Injection{Fault: inj.Fault, Cycle: cycle, Seed: inj.Seed}
	}

	// Bisect [0, cycle] for the earliest failing cycle. Cycle 0 (nothing
	// executed, nothing pending) normally passes, the original cycle fails
	// by construction; the search maintains pass(lo) / fail(hi).
	lo, hi := uint64(0), inj.Cycle
	if b, err := bad(at(0)); err != nil {
		return nil, err
	} else if b {
		hi = 0
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		b, err := bad(at(mid))
		if err != nil {
			return nil, err
		}
		if b {
			hi = mid
		} else {
			lo = mid
		}
	}
	base := at(hi)
	m := &Minimized{Cycle: hi, OriginalCycle: inj.Cycle}

	// Shrink the fault mask for the fault models that have one.
	if base.Fault == FaultTorn || base.Fault == FaultCorrupt {
		sys, err := t.SystemAt(base.Cycle)
		if err != nil {
			return nil, err
		}
		m.Targets = base.Targets(sys, t.Sim.Cores)
		sys.Release()
		if m.Targets > 0 {
			if base.Mask, err = shrinkMask(base, m.Targets, bad); err != nil {
				return nil, err
			}
			m.Mask = base.Mask
		}
	}

	// Record the failure as it presents at the minimized point.
	var err error
	if dir == "" {
		m.Outcome, m.Detail, err = t.evaluate(base)
		return m, err
	}
	meta, err := t.WriteArtifact(dir, base, inj.Cycle)
	if err != nil {
		return nil, err
	}
	m.Outcome, m.Detail = meta.Outcome, meta.Detail
	m.Artifact, m.Repro = meta.Dir, ReplayCommand+meta.Dir
	return m, nil
}

// shrinkMask greedily removes chunks of the [0, n) target mask while the
// failure persists (a ddmin-style pass with a fixed evaluation budget).
func shrinkMask(base Injection, n int, bad func(Injection) (bool, error)) ([]int, error) {
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
			end := min(start+chunk, len(mask))
			cand := make([]int, 0, len(mask)-(end-start))
			cand = append(cand, mask[:start]...)
			cand = append(cand, mask[end:]...)
			budget--
			c := base
			c.Mask = cand
			b, err := bad(c)
			if err != nil {
				return nil, err
			}
			if b {
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
			gran = min(gran*2, len(mask))
		}
	}
	return mask, nil
}
