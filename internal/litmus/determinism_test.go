package litmus

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/core"
)

// The report is the CI gate's ground truth, so its bytes must not depend
// on scheduling: the same (config, seed) produces the identical report at
// any worker count and under either cycle stepper.
func TestReportBytesAreDeterministic(t *testing.T) {
	render := func(workers int, stepper core.Stepper) []byte {
		rep, err := Run(context.Background(), Config{
			Programs: Curated(),
			Seed:     42,
			Workers:  workers,
			Stepper:  stepper,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	base := render(1, core.StepperFast)
	for _, v := range []struct {
		name    string
		workers int
		stepper core.Stepper
	}{
		{"workers=8 stepper=fast", 8, core.StepperFast},
		{"workers=1 stepper=reference", 1, core.StepperReference},
		{"workers=5 stepper=reference", 5, core.StepperReference},
	} {
		if got := render(v.workers, v.stepper); !bytes.Equal(got, base) {
			t.Fatalf("report bytes differ for %s (len %d vs %d)", v.name, len(got), len(base))
		}
	}
}

// fullGrammarSHA256 is the digest of the full-grammar report at seed 0
// (proteus-litmus -programs all -faults all -seed 0).
const fullGrammarSHA256 = "605c63579afbf1ccad1d94bc99820f5837625b4662625e441d8bffcf7e0e398b"

// The full grammar must also sweep clean; this is the slow exhaustive
// pass behind the curated gate. Its report bytes are pinned by digest.
func TestFullGrammarSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full 398-program sweep skipped in -short mode")
	}
	rep, err := Run(context.Background(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Suite.Programs != 398 {
		t.Fatalf("swept %d programs, want the full 398-program grammar", rep.Suite.Programs)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if sum := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); sum != fullGrammarSHA256 {
		t.Errorf("full-grammar report digest %s, want %s", sum, fullGrammarSHA256)
	}
	if rep.Totals.Failed != 0 || rep.Totals.Divergences != 0 {
		for _, c := range rep.Cases {
			for _, d := range c.Divergences {
				t.Errorf("divergence %s/%s %s@%d: %s", c.Program, c.Scheme, d.Fault, d.Cycle, d.Detail)
			}
		}
		t.Fatalf("full sweep: %d failed, %d divergences", rep.Totals.Failed, rep.Totals.Divergences)
	}
}
