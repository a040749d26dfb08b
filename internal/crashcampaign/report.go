package crashcampaign

import (
	"encoding/json"
	"io"

	"repro/internal/workload"
)

// Outcome classifies one injection against the expectation matrix.
type Outcome string

const (
	// OutcomeVerified: recovery succeeded and the oracle matched a
	// transaction prefix.
	OutcomeVerified Outcome = "verified"
	// OutcomeDetected: recovery refused the image with a typed corruption
	// error — the acceptable result for injected damage the scheme never
	// promised to survive.
	OutcomeDetected Outcome = "detected"
	// OutcomeVulnerable: an expected-unsafe combination (a fault outside
	// the scheme's guarantees) failed verification. Documented exposure,
	// not a bug.
	OutcomeVulnerable Outcome = "vulnerable"
	// OutcomeFailed: an expected-safe combination broke, or corruption
	// was silently accepted. Every failed injection is minimized.
	OutcomeFailed Outcome = "failed"
)

// InjectionResult is the outcome of one fault injection.
type InjectionResult struct {
	Cycle   uint64  `json:"cycle"`
	Fault   string  `json:"fault"`
	Outcome Outcome `json:"outcome"`
	// Detail carries the recovery error or oracle mismatch for non-verified
	// outcomes.
	Detail string `json:"detail,omitempty"`
	// Minimized is attached to failed (and, under MinimizeAll, vulnerable)
	// injections after minimization.
	Minimized *Minimized `json:"minimized,omitempty"`
}

// Minimized describes the reduced reproducer of a failed injection, as
// Target.Minimize produced it.
type Minimized struct {
	// Cycle is the earliest failing crash cycle the bisection found.
	Cycle uint64 `json:"cycle"`
	// OriginalCycle is the sweep point the failure was first seen at.
	OriginalCycle uint64 `json:"original_cycle"`
	// Targets is the fault's target universe size at the minimized cycle;
	// Mask is the shrunk subset that still fails (absent for faults
	// without a mask, e.g. ADR loss).
	Targets int   `json:"targets,omitempty"`
	Mask    []int `json:"mask,omitempty"`
	// Outcome is the failure's classification at the minimized point.
	Outcome Outcome `json:"outcome"`
	Detail  string  `json:"detail,omitempty"`
	// Artifact is the reproducer directory (empty when the sweep ran
	// without an artifact dir); Repro is the ready-to-run replay command.
	Artifact string `json:"artifact,omitempty"`
	Repro    string `json:"repro,omitempty"`
}

// Tally counts injections by outcome. Campaign and litmus reports embed
// it at the same position, so both encode the counts identically.
type Tally struct {
	Verified   int `json:"verified"`
	Detected   int `json:"detected"`
	Vulnerable int `json:"vulnerable"`
	Failed     int `json:"failed"`
}

// Count tallies one outcome.
func (t *Tally) Count(o Outcome) {
	switch o {
	case OutcomeVerified:
		t.Verified++
	case OutcomeDetected:
		t.Detected++
	case OutcomeVulnerable:
		t.Vulnerable++
	case OutcomeFailed:
		t.Failed++
	}
}

// Add accumulates another tally.
func (t *Tally) Add(u Tally) {
	t.Verified += u.Verified
	t.Detected += u.Detected
	t.Vulnerable += u.Vulnerable
	t.Failed += u.Failed
}

// TupleReport is the sweep result for one (benchmark, scheme) pair.
type TupleReport struct {
	Bench       string            `json:"bench"`
	Scheme      string            `json:"scheme"`
	Fingerprint string            `json:"fingerprint"`
	TotalCycles uint64            `json:"total_cycles"`
	Points      []uint64          `json:"points"`
	Injections  []InjectionResult `json:"injections"`
	Tally
}

// Totals aggregates the campaign.
type Totals struct {
	Tuples     int `json:"tuples"`
	Injections int `json:"injections"`
	Tally
	Minimized int `json:"minimized"`
}

// Info records the campaign's inputs so a report is self-describing.
type Info struct {
	Seed              int64           `json:"seed"`
	Sweep             int             `json:"sweep"`
	Rand              int             `json:"rand"`
	Faults            []string        `json:"faults"`
	Params            workload.Params `json:"params"`
	ConfigFingerprint string          `json:"config_fingerprint"`
}

// Report is the campaign result. It contains no wall-clock or
// order-of-completion data: marshaling it is byte-identical for the same
// (config, seed) at any worker count.
type Report struct {
	Campaign Info          `json:"campaign"`
	Tuples   []TupleReport `json:"tuples"`
	Totals   Totals        `json:"totals"`
}

// WriteJSON writes the canonical (indented, newline-terminated) report
// encoding — the bytes the determinism guarantee is stated over.
func (r *Report) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
