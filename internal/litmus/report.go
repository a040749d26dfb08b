package litmus

import (
	"encoding/json"
	"io"

	"repro/internal/crashcampaign"
)

// Divergence is one simulator/axiom disagreement: an injection the
// expectation matrix classified as failed. The first one per (case,
// fault) — the sweep visits states in cycle order — is minimized like a
// campaign failure (OriginalCycle is where the sweep hit it); later
// cycles of the same fault are tallied in the case counters.
type Divergence struct {
	Fault string `json:"fault"`
	crashcampaign.Minimized
}

// CaseReport is the sweep result for one (program, scheme) pair.
type CaseReport struct {
	Program string `json:"program"`
	Scheme  string `json:"scheme"`
	// TotalCycles is the full run length; States counts the distinct
	// persist states the sweep classified (the representatives of the
	// per-cycle signature dedup).
	TotalCycles uint64 `json:"total_cycles"`
	States      int    `json:"states"`
	Injections  int    `json:"injections"`
	crashcampaign.Tally
	Divergences []Divergence `json:"divergences,omitempty"`
}

// Totals aggregates the suite.
type Totals struct {
	Cases      int `json:"cases"`
	Injections int `json:"injections"`
	crashcampaign.Tally
	Divergences int `json:"divergences"`
}

// Info records the suite's inputs so a report is self-describing.
type Info struct {
	Seed              int64    `json:"seed"`
	Programs          int      `json:"programs"`
	Schemes           []string `json:"schemes"`
	Faults            []string `json:"faults"`
	ConfigFingerprint string   `json:"config_fingerprint"`
}

// Report is the suite result. It contains no wall-clock or
// order-of-completion data: marshaling it is byte-identical for the same
// (config, seed) at any worker count and under either stepper.
type Report struct {
	Suite  Info         `json:"suite"`
	Cases  []CaseReport `json:"cases"`
	Totals Totals       `json:"totals"`
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
