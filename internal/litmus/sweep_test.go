package litmus

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/crashcampaign"
)

// The curated subset is the CI gate: every failure-safe scheme, every
// fault model, zero divergences. A failure here means the simulator, the
// recovery path, and the declared ordering axioms no longer agree.
func TestCuratedSweepIsDivergenceFree(t *testing.T) {
	rep, err := Run(context.Background(), Config{Programs: Curated()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Totals.Failed != 0 || rep.Totals.Divergences != 0 {
		for _, c := range rep.Cases {
			for _, d := range c.Divergences {
				t.Errorf("divergence %s/%s %s@%d: %s", c.Program, c.Scheme, d.Fault, d.Cycle, d.Detail)
			}
		}
		t.Fatalf("curated sweep: %d failed, %d divergences", rep.Totals.Failed, rep.Totals.Divergences)
	}
	if rep.Totals.Verified == 0 || rep.Totals.Detected == 0 || rep.Totals.Vulnerable == 0 {
		t.Fatalf("curated sweep lacks outcome coverage: %+v", rep.Totals)
	}
	wantCases := len(Curated()) * len(rep.Suite.Schemes)
	if rep.Totals.Cases != wantCases {
		t.Fatalf("swept %d cases, want %d", rep.Totals.Cases, wantCases)
	}
	for _, c := range rep.Cases {
		if c.States < 2 {
			t.Errorf("case %s/%s classified only %d persist states", c.Program, c.Scheme, c.States)
		}
		if c.Injections == 0 {
			t.Errorf("case %s/%s ran no injections", c.Program, c.Scheme)
		}
	}
}

// Regression for the out-of-order log-flush departure bug this harness
// found (DESIGN.md "Litmus harness"): a younger transaction's log entry
// used to reach the memory controller before an older transaction's
// entries whenever the younger log-load hit in cache while the older ones
// missed to NVM. A crash in that window left the durable log holding only
// the younger undo entry, whose pre-image is the older transaction's
// *volatile* output — recovery then rolled the variable to a value that
// never persisted. The two-transaction single-thread programs below are
// the minimal reproducers; Proteus is swept with and without log write
// removal.
func TestLogFlushDepartsInOrderRegression(t *testing.T) {
	var progs []Program
	for _, name := range []string{"Pc:xyx;y", "Ps:xy;xy", "Pc:x;y"} {
		p, err := Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	rep, err := Run(context.Background(), Config{
		Programs: progs,
		Schemes:  []core.Scheme{core.Proteus, core.ProteusNoLWR},
		Faults:   []crashcampaign.Fault{crashcampaign.FaultClean},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Cases {
		for _, d := range c.Divergences {
			t.Errorf("reintroduced divergence %s/%s %s@%d: %s", c.Program, c.Scheme, d.Fault, d.Cycle, d.Detail)
		}
	}
	if rep.Totals.Failed != 0 {
		t.Fatalf("clean-fault sweep failed %d injections", rep.Totals.Failed)
	}
}

// A checker must reject states the axioms forbid: feed it the init image
// with a committed count claiming one transaction retired, which no
// commit-lag window can explain away once the count exceeds the lag.
func TestCheckerRejectsImpossibleState(t *testing.T) {
	p, err := Parse("Ps:x;y")
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ck := newChecker(c, core.Proteus)
	if err := ck.permitted(c.WL.InitImage, []int{0}); err != nil {
		t.Fatalf("init image with committed=0 must be permitted: %v", err)
	}
	if err := ck.permitted(c.WL.InitImage, []int{2}); err == nil {
		t.Fatal("init image with committed=2 must be rejected")
	}
}

// A litmus injection dumped as an artifact must replay from its meta
// alone: the program is rebuilt from its name, re-simulated to the crash
// cycle, and yields the stored image and the recorded outcome.
func TestArtifactReplayRoundtrip(t *testing.T) {
	p, err := Parse("Pc:x;y")
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := compiled.Target(core.Proteus)
	if err != nil {
		t.Fatal(err)
	}
	tgt.Seed = 7
	sys, err := tgt.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	for !sys.Finished() {
		sys.Step(10000)
	}
	mid := sys.Cycle() / 2
	sys.Release()
	inj := tgt.Injection(crashcampaign.FaultTorn, mid)
	meta, err := tgt.WriteArtifact(t.TempDir(), inj, mid)
	if err != nil {
		t.Fatal(err)
	}

	a, err := crashcampaign.LoadArtifact(meta.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if a.Meta.Source != p.Name() || a.Meta.Scheme != core.Proteus || a.Meta.Fault != crashcampaign.FaultTorn || a.Meta.Cycle != mid {
		t.Fatalf("artifact meta mismatch: %+v", a.Meta)
	}
	rp, err := Parse(a.Meta.Source)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := rp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := rc.Target(core.Proteus)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rebuilt.Replay(a)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ImageMatches || !res.Reproduced {
		t.Fatalf("replay: image matches %v, classified %s (%s), recorded %s", res.ImageMatches, res.Outcome, res.Detail, a.Meta.Outcome)
	}
}

func TestRunRespectsContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Config{Programs: Curated()}); err == nil {
		t.Fatal("cancelled sweep must return an error")
	}
}
