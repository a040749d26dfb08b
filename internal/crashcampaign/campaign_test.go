package crashcampaign

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/workload"
)

func testParams() workload.Params {
	return workload.Params{Threads: 2, InitOps: 128, SimOps: 24, Seed: 11,
		SSItems: 256, SSStrSize: 256, ListNodes: 4, ListElems: 64}
}

func testConfig(workers int) Config {
	return Config{
		Params: testParams(),
		Sim:    config.Default(),
		Engine: engine.New(engine.Config{Workers: workers}),
		Seed:   7,
	}
}

// targetSink keeps NewTarget's result on the heap in
// TestNewTargetGeneratesNothing.
var targetSink *Target

// TestNewTargetGeneratesNothing pins lazy generation: binding a Table 2
// workload to a scheme allocates the Target and nothing else, because
// every machine the Target builds streams its micro-ops afresh.
func TestNewTargetGeneratesNothing(t *testing.T) {
	c := testConfig(1)
	c.Normalize()
	for _, kind := range workload.Table2 {
		wl, err := workload.Build(kind, c.Params)
		if err != nil {
			t.Fatal(err)
		}
		expect := OracleExpectation(wl, core.Proteus)
		allocs := testing.AllocsPerRun(10, func() {
			targetSink = NewTarget(kind.Abbrev(), core.Proteus, c.Sim, wl, expect)
		})
		if allocs != 1 {
			t.Errorf("%v: NewTarget allocates %.0f times, want 1 (the Target)", kind, allocs)
		}
	}
}

// TestValidateBoundsCrashPoints: a campaign may ask for MaxPoints crash
// points per tuple, swept or random, and no more; Run refuses more before
// it builds anything.
func TestValidateBoundsCrashPoints(t *testing.T) {
	c := testConfig(1)
	c.Benches = []workload.Kind{workload.Queue}
	for _, pts := range [][2]int{{MaxPoints, 0}, {MaxPoints - 8, 8}, {0, MaxPoints}, {220, 0}} {
		c.Sweep, c.Rand = pts[0], pts[1]
		if err := c.Validate(); err != nil {
			t.Errorf("sweep %d rand %d: %v", c.Sweep, c.Rand, err)
		}
	}
	for _, pts := range [][2]int{{MaxPoints + 1, 0}, {MaxPoints, 1}, {1 << 62, 1 << 62}} {
		c.Sweep, c.Rand = pts[0], pts[1]
		if err := c.Validate(); err == nil {
			t.Errorf("sweep %d rand %d accepted", c.Sweep, c.Rand)
		}
		if _, err := Run(context.Background(), c); err == nil {
			t.Errorf("Run accepted sweep %d rand %d", c.Sweep, c.Rand)
		}
	}
}

// TestCleanSweepAllVerified: a clean-fault sweep across every failure-safe
// scheme must verify at every crash point — the baseline the recovery
// tests already establish, now through the campaign machinery.
func TestCleanSweepAllVerified(t *testing.T) {
	c := testConfig(4)
	c.Benches = []workload.Kind{workload.Queue, workload.HashMap}
	c.Sweep = 8
	rep, err := Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Totals.Injections == 0 {
		t.Fatal("campaign injected nothing")
	}
	if rep.Totals.Verified != rep.Totals.Injections {
		t.Fatalf("clean sweep: %d/%d verified (failed %d, vulnerable %d, detected %d)",
			rep.Totals.Verified, rep.Totals.Injections,
			rep.Totals.Failed, rep.Totals.Vulnerable, rep.Totals.Detected)
	}
}

// TestFaultSweepNoExpectedSafeFailures: with every fault model on, no
// injection may land in the failed class — torn/ADR-loss damage on
// ADR-reliant schemes is vulnerable-or-detected (documented exposure),
// and corruption is verified-or-detected, never silently accepted.
func TestFaultSweepNoExpectedSafeFailures(t *testing.T) {
	c := testConfig(4)
	c.Benches = []workload.Kind{workload.Queue, workload.StringSwap}
	c.Sweep = 12
	c.Rand = 4
	c.Faults = AllFaults
	rep, err := Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range rep.Tuples {
		if tu.Failed != 0 {
			for _, ir := range tu.Injections {
				if ir.Outcome == OutcomeFailed {
					t.Errorf("%s/%s %s@%d failed: %s", tu.Bench, tu.Scheme, ir.Fault, ir.Cycle, ir.Detail)
				}
			}
		}
	}
	if rep.Totals.Detected == 0 {
		t.Error("no injection was detected as corruption; the torn/corrupt models are not reaching the integrity checks")
	}
}

// TestDeterministicReport: the report bytes are identical whether the
// engine runs 1 worker or 8 (satellite: campaign determinism).
func TestDeterministicReport(t *testing.T) {
	render := func(workers int) []byte {
		c := testConfig(workers)
		c.Benches = []workload.Kind{workload.Queue}
		c.Schemes = []core.Scheme{core.PMEM, core.Proteus}
		c.Sweep = 6
		c.Rand = 2
		c.Faults = AllFaults
		rep, err := Run(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := render(1)
	b := render(8)
	if !bytes.Equal(a, b) {
		t.Fatalf("report differs between 1 and 8 workers:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", a, b)
	}
}

// TestStepperEquivalentReport: the campaign report bytes are identical
// whether the sweep systems and engine runs use the fast event-driven
// stepper or the per-cycle reference stepper.
func TestStepperEquivalentReport(t *testing.T) {
	render := func(st core.Stepper) []byte {
		c := testConfig(4)
		c.Engine = engine.New(engine.Config{Workers: 4, Stepper: st})
		c.Benches = []workload.Kind{workload.Queue, workload.StringSwap}
		c.Sweep = 6
		c.Rand = 2
		c.Faults = AllFaults
		rep, err := Run(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	fast := render(core.StepperFast)
	ref := render(core.StepperReference)
	if !bytes.Equal(fast, ref) {
		t.Fatalf("report differs between fast and reference steppers:\n--- fast ---\n%s\n--- reference ---\n%s", fast, ref)
	}
}

// TestMinimizerProducesReproducer: a scheme that is not failure safe
// yields vulnerable injections; with MinimizeAll each gets bisected to an
// earlier-or-equal cycle and dumped as an artifact that replays to the
// same failure.
func TestMinimizerProducesReproducer(t *testing.T) {
	c := testConfig(4)
	c.Benches = []workload.Kind{workload.StringSwap}
	c.Schemes = []core.Scheme{core.PMEMNoLog}
	// Unprotected tearing is only visible inside a transaction's narrow
	// durability window, so the sweep must be dense to hit one.
	c.Sweep = 220
	c.Minimize = MinimizeAll
	c.ArtifactDir = t.TempDir()
	rep, err := Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	var min *Minimized
	for _, tu := range rep.Tuples {
		for _, ir := range tu.Injections {
			if ir.Outcome == OutcomeVulnerable {
				if ir.Minimized == nil {
					t.Fatalf("vulnerable injection at %d not minimized under MinimizeAll", ir.Cycle)
				}
				if min == nil {
					min = ir.Minimized
				}
				if ir.Minimized.Cycle > ir.Cycle {
					t.Fatalf("minimized cycle %d beyond original %d", ir.Minimized.Cycle, ir.Cycle)
				}
			}
		}
	}
	if min == nil {
		t.Fatal("PMEM+nolog never torn by the sweep; minimization untested (widen the sweep)")
	}
	if min.Artifact == "" || min.Repro == "" {
		t.Fatalf("minimized failure lacks artifact/repro: %+v", min)
	}
	if _, err := os.Stat(filepath.Join(min.Artifact, ImageFileName)); err != nil {
		t.Fatal(err)
	}

	if want := ReplayCommand + min.Artifact; min.Repro != want {
		t.Fatalf("repro command %q, want %q", min.Repro, want)
	}

	// Round trip: rebuild the target from the artifact alone and replay.
	a, err := LoadArtifact(min.Artifact)
	if err != nil {
		t.Fatal(err)
	}
	kind, err := workload.KindByName(a.Meta.Source)
	if err != nil {
		t.Fatal(err)
	}
	scheme := a.Meta.Scheme
	wl, err := workload.Build(kind, a.Meta.Params)
	if err != nil {
		t.Fatal(err)
	}
	sim := config.Default()
	sim.Cores = a.Meta.Params.Threads
	tgt := NewTarget(a.Meta.Source, scheme, sim, wl, OracleExpectation(wl, scheme))
	res, err := tgt.Replay(a)
	if err != nil {
		t.Fatal(err)
	}
	// The replayed image must be byte-identical to the stored one, and it
	// must still exhibit the failure.
	if !res.ImageMatches {
		t.Fatal("replayed crash image differs from the stored artifact image")
	}
	if !res.Reproduced || res.Outcome != min.Outcome {
		t.Fatalf("replay classified %s (%s), minimizer recorded %s", res.Outcome, res.Detail, min.Outcome)
	}

	// A stored image with one flipped byte no longer matches.
	a.Image[len(a.Image)/2] ^= 1
	if res, err = tgt.Replay(a); err != nil {
		t.Fatal(err)
	}
	if res.ImageMatches || res.Reproduced {
		t.Fatalf("flipped stored image still matches: %+v", res)
	}
}

// TestParseFaults covers the CLI's fault-list parsing.
func TestParseFaults(t *testing.T) {
	fs, err := ParseFaults("torn,adrloss")
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 3 || fs[0] != FaultClean || fs[1] != FaultTorn || fs[2] != FaultADRLoss {
		t.Fatalf("parsed %v", fs)
	}
	if fs, _ = ParseFaults("all"); len(fs) != len(AllFaults) {
		t.Fatalf("all -> %v", fs)
	}
	if fs, _ = ParseFaults(""); len(fs) != 1 || fs[0] != FaultClean {
		t.Fatalf("empty -> %v", fs)
	}
	if fs, _ = ParseFaults("corrupt, torn,clean,torn"); !slices.Equal(fs, []Fault{FaultClean, FaultTorn, FaultCorrupt}) {
		t.Fatalf("unsorted list with duplicates -> %v", fs)
	}
	if _, err := ParseFaults("nope"); err == nil {
		t.Fatal("bad fault accepted")
	}
}
