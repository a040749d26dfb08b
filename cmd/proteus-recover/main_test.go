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
	tgt, err := compiled.Target(core.ATOM)
	if err != nil {
		t.Fatal(err)
	}
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
