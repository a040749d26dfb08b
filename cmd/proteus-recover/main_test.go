package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/crashcampaign"
	"repro/internal/engine"
	"repro/internal/litmus"
	"repro/internal/workload"
)

// TestReplayExitCodes: -replay exits 0 on a campaign artifact (the open
// Proteus clean-crash defect, whose failed outcome must reproduce) and on
// a litmus artifact, and 2 once one byte of a stored image is flipped.
func TestReplayExitCodes(t *testing.T) {
	root := t.TempDir()
	// proteus-crash -bench RT -scheme Proteus -sweep 32 -rand 8 -faults all
	//   -threads 2 -initops 1024 -simops 160 -wseed 54 -seed 54 -artifacts root
	faults, err := crashcampaign.ParseFaults("all")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := crashcampaign.Run(context.Background(), crashcampaign.Config{
		Benches: []workload.Kind{workload.RBTree},
		Schemes: []core.Scheme{core.Proteus},
		Params: workload.Params{Threads: 2, InitOps: 1024, SimOps: 160, Seed: 54,
			SSItems: 256, SSStrSize: 256, ListNodes: 4, ListElems: 64},
		Sim:         config.Default(),
		Sweep:       32,
		Rand:        8,
		Faults:      faults,
		Seed:        54,
		ArtifactDir: root,
		Engine:      engine.New(engine.Config{Workers: 2}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Totals.Failed != 1 || rep.Totals.Minimized != 1 {
		t.Fatalf("defect campaign: %d failed, %d minimized; want 1 and 1", rep.Totals.Failed, rep.Totals.Minimized)
	}
	defect := filepath.Join(root, "rt-proteus-clean-c4265")
	var out strings.Builder
	if code, err := replay(&out, defect); err != nil || code != 0 {
		t.Fatalf("replay %s: exit %d, %v; want 0\n%s", defect, code, err, &out)
	}
	if !strings.Contains(out.String(), "matches the stored") || !strings.Contains(out.String(), "replayed  failed") {
		t.Fatalf("defect replay did not rebuild the image and reproduce the failure:\n%s", &out)
	}

	p, err := litmus.Parse("Ps:xy;x|y")
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	tgt := compiled.Target(core.ATOM)
	meta, err := tgt.WriteArtifact(root, tgt.Injection(crashcampaign.FaultCorrupt, 600), 600)
	if err != nil {
		t.Fatal(err)
	}
	if code, err := replay(io.Discard, meta.Dir); err != nil || code != 0 {
		t.Fatalf("replay %s: exit %d, %v; want 0", meta.Dir, code, err)
	}

	img := filepath.Join(defect, crashcampaign.ImageFileName)
	b, err := os.ReadFile(img)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0x80
	if err := os.WriteFile(img, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, err := replay(io.Discard, defect); err != nil || code != 2 {
		t.Fatalf("replay of a flipped image: exit %d, %v; want 2", code, err)
	}
}

// TestManualCrashJudgedAsCampaign: a manual crash derives its fault
// pattern from -seed and takes its verdict from the campaign's
// classifier, so a torn PMEM crash the campaign calls vulnerable (a fault
// outside PMEM's guarantees) prints that class and exits 0.
func TestManualCrashJudgedAsCampaign(t *testing.T) {
	// proteus-recover -bench QE -scheme PMEM -fault torn, at its default
	// shape: 2 threads, 64 timed operations, a tenth of the init ops.
	p := workload.Queue.DefaultParams(1)
	p.Threads, p.SimOps, p.InitOps, p.Seed = 2, 64, p.InitOps/10, 42
	tup, err := crashcampaign.RunTuple(context.Background(), crashcampaign.Config{
		Params: p,
		Sim:    config.Default(),
		Sweep:  32,
		Faults: []crashcampaign.Fault{crashcampaign.FaultTorn},
		Seed:   p.Seed,
		Engine: engine.New(engine.Config{Workers: 1}),
	}, workload.Queue, core.PMEM)
	if err != nil {
		t.Fatal(err)
	}
	var vuln *crashcampaign.InjectionResult
	for i, r := range tup.Injections {
		if r.Fault == "torn" && r.Outcome == crashcampaign.OutcomeVulnerable {
			vuln = &tup.Injections[i]
			break
		}
	}
	if vuln == nil {
		t.Fatal("the campaign classified no torn PMEM crash as vulnerable")
	}
	var out strings.Builder
	code, err := crashRun{kind: workload.Queue, scheme: core.PMEM, params: p, fault: crashcampaign.FaultTorn,
		atCycle: int64(vuln.Cycle)}.run(&out)
	if err != nil || code != 0 {
		t.Fatalf("torn PMEM crash at cycle %d: exit %d, %v; want 0\n%s", vuln.Cycle, code, err, &out)
	}
	if !strings.Contains(out.String(), "outcome   vulnerable\ndetail    "+vuln.Detail+"\n") {
		t.Fatalf("torn PMEM crash at cycle %d does not report the campaign's verdict (vulnerable: %s):\n%s", vuln.Cycle, vuln.Detail, &out)
	}
}
