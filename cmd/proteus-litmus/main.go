// Command proteus-litmus runs the persistency-model litmus harness: it
// enumerates tiny programs (2–4 persistent stores over two variables, up
// to two threads, up to two durable transactions per thread), runs each
// under every selected scheme, sweeps every distinct persist state of
// every run with the crash campaign's fault models, and checks each
// recovered image against the exact post-crash states the scheme's
// declared ordering axioms permit. Any divergence is a bug — in the
// simulator, the recovery path, or the axioms — and is minimized like a
// crash-campaign failure: the crash cycle bisected, the fault mask
// shrunk, and (with -artifacts) a reproducer dumped that
// proteus-recover -replay re-runs.
//
// The report is deterministic in (flags, -seed): byte-identical at any
// -jobs count and under either -stepper.
//
// Examples:
//
//	proteus-litmus -programs curated -faults all -out litmus.json
//	proteus-litmus -programs all -scheme Proteus,Proteus+NoLWR -jobs 8
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/crashcampaign"
	"repro/internal/enum"
	"repro/internal/litmus"
	"repro/internal/resultstore"
)

func main() {
	var (
		programs []litmus.Program
		schemes  []core.Scheme
		faults   []crashcampaign.Fault
		stepper  core.Stepper
	)
	enum.ListVar(&programs, "programs", "all", "programs to sweep: all (full grammar), curated (CI subset), or a comma-separated list of program names like Ps:xy;x|y", parsePrograms)
	enum.ListVar(&schemes, "scheme", "all", "comma-separated schemes or all (the failure-safe set)", core.ParseSchemes)
	enum.ListVar(&faults, "faults", "all", "fault models to inject: clean, torn, adrloss, corrupt, all (clean is always included)", crashcampaign.ParseFaults)
	flag.TextVar(&stepper, "stepper", core.StepperFast, "cycle-advance strategy: fast or reference")
	var (
		jobs      = flag.Int("jobs", 0, "concurrent case sweeps (0 = GOMAXPROCS)")
		out       = flag.String("out", "-", "report destination (- = stdout)")
		artifacts = flag.String("artifacts", "", "dump divergence reproducers into this directory")
		seed      = flag.Int64("seed", 1, "per-injection fault randomness seed")
		quiet     = flag.Bool("q", false, "suppress the stderr summary")
	)
	flag.Parse()

	cfg := litmus.Config{
		Programs:    programs,
		Schemes:     schemes,
		Faults:      faults,
		Seed:        *seed,
		Workers:     *jobs,
		Stepper:     stepper,
		ArtifactDir: *artifacts,
	}

	start := time.Now()
	rep, err := litmus.Run(context.Background(), cfg)
	exitOn(err)

	if *out == "-" {
		exitOn(rep.WriteJSON(os.Stdout))
	} else {
		// Buffer and publish atomically: a crash mid-write never clobbers
		// the previous complete report.
		var buf bytes.Buffer
		exitOn(rep.WriteJSON(&buf))
		exitOn(resultstore.WriteFileAtomic(*out, buf.Bytes(), 0o644))
	}

	if !*quiet {
		fmt.Fprintf(os.Stderr, "litmus: %d programs, %d cases, %d injections over %d persist states in %v\n",
			rep.Suite.Programs, rep.Totals.Cases, rep.Totals.Injections, totalStates(rep), time.Since(start).Round(time.Millisecond))
		fmt.Fprintf(os.Stderr, "  verified %d, detected %d, vulnerable %d, failed %d (divergences %d)\n",
			rep.Totals.Verified, rep.Totals.Detected, rep.Totals.Vulnerable, rep.Totals.Failed, rep.Totals.Divergences)
		for _, c := range rep.Cases {
			for _, d := range c.Divergences {
				fmt.Fprintf(os.Stderr, "  DIVERGENCE %s/%s %s@%d: %s\n", c.Program, c.Scheme, d.Fault, d.Cycle, d.Detail)
				if d.Repro != "" {
					fmt.Fprintf(os.Stderr, "    repro: %s\n", d.Repro)
				}
			}
		}
	}
	if rep.Totals.Failed > 0 {
		os.Exit(1)
	}
}

// parsePrograms resolves -programs: "curated", or a list of program
// names in which "all" is the full grammar.
func parsePrograms(s string) ([]litmus.Program, error) {
	if strings.EqualFold(strings.TrimSpace(s), "curated") {
		return litmus.Curated(), nil
	}
	return enum.List(s, litmus.Enumerate(), litmus.Parse)
}

func totalStates(rep *litmus.Report) int {
	n := 0
	for _, c := range rep.Cases {
		n += c.States
	}
	return n
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "proteus-litmus:", err)
		os.Exit(1)
	}
}
