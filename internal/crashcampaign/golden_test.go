package crashcampaign

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/workload"
)

// cliCampaign is the campaign proteus-crash runs for the given flags: its
// workload shape at the CLI's fixed structure sizes, the default machine,
// and its default minimize mode (failed).
func cliCampaign(benches []workload.Kind, schemes []core.Scheme, faults string, sweep, rnd int, mode MinimizeMode, threads, initOps, simOps int, wseed, seed int64) Config {
	fs, err := ParseFaults(faults)
	if err != nil {
		panic(err)
	}
	return Config{
		Benches: benches,
		Schemes: schemes,
		Params: workload.Params{Threads: threads, InitOps: initOps, SimOps: simOps, Seed: wseed,
			SSItems: 256, SSStrSize: 256, ListNodes: 4, ListElems: 64},
		Sim:      config.Default(),
		Sweep:    sweep,
		Rand:     rnd,
		Faults:   fs,
		Seed:     seed,
		Minimize: mode,
		Engine:   engine.New(engine.Config{Workers: 2}),
	}
}

// TestGoldenReports regenerates committed proteus-crash reports through
// the library and requires the same bytes. Each golden names the command
// line that produced it.
func TestGoldenReports(t *testing.T) {
	failSafe := []core.Scheme{core.PMEM, core.PMEMPcommit, core.ATOM, core.ProteusNoLWR, core.Proteus}
	for _, g := range []struct {
		file string
		cfg  Config
	}{
		// proteus-crash -bench QE,SS -scheme all -sweep 16 -faults torn
		{"ci-smoke.json", cliCampaign([]workload.Kind{workload.Queue, workload.StringSwap}, failSafe,
			"torn", 16, 0, MinimizeFailed, 2, 256, 40, 11, 1)},
		// proteus-crash -bench SS -scheme PMEM+nolog -sweep 220 -minimize all
		{"ss-pmemnolog-minimize.json", cliCampaign([]workload.Kind{workload.StringSwap}, []core.Scheme{core.PMEMNoLog},
			"clean", 220, 0, MinimizeAll, 2, 256, 40, 11, 1)},
		// proteus-crash -bench SS -scheme PMEM+nolog -sweep 16 -faults torn -minimize all
		// pins mask shrinking: two minimized injections shrink 2 targets to 1.
		{"ss-pmemnolog-torn-minimize.json", cliCampaign([]workload.Kind{workload.StringSwap}, []core.Scheme{core.PMEMNoLog},
			"torn", 16, 0, MinimizeAll, 2, 256, 40, 11, 1)},
		// proteus-crash -bench RT -scheme Proteus -sweep 32 -rand 8 -faults all
		//   -threads 2 -initops 1024 -simops 160 -wseed 54 -seed 54
		// holds the open Proteus clean-crash defect: one failed injection,
		// minimized from cycle 4265 to 3727.
		{"rt-proteus-defect.json", cliCampaign([]workload.Kind{workload.RBTree}, []core.Scheme{core.Proteus},
			"all", 32, 8, MinimizeFailed, 2, 1024, 160, 54, 54)},
	} {
		t.Run(g.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", g.file))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Run(context.Background(), g.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := rep.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("report differs from testdata/%s (%d bytes vs %d)", g.file, got.Len(), len(want))
			}
		})
	}
}
