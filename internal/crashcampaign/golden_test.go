package crashcampaign

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/workload"
)

// cliCampaign is the campaign proteus-crash runs for the given flags,
// every other flag at its default: Default with those flags set.
func cliCampaign(benches []workload.Kind, schemes []core.Scheme, faults string, sweep int, mode MinimizeMode) Config {
	fs, err := ParseFaults(faults)
	if err != nil {
		panic(err)
	}
	c := Default()
	c.Benches, c.Schemes, c.Faults, c.Sweep, c.Minimize = benches, schemes, fs, sweep, mode
	c.Engine = engine.New(engine.Config{Workers: 2})
	return c
}

// TestGoldenReports regenerates committed proteus-crash reports through
// the library and requires the same bytes. Each golden names the command
// line that produced it.
func TestGoldenReports(t *testing.T) {
	failSafe := []core.Scheme{core.PMEM, core.PMEMPcommit, core.ATOM, core.ProteusNoLWR, core.Proteus}
	// proteus-crash -bench RT -scheme Proteus -sweep 32 -rand 8 -faults all
	//   -threads 2 -initops 1024 -simops 160 -wseed 54 -seed 54
	rt := cliCampaign([]workload.Kind{workload.RBTree}, []core.Scheme{core.Proteus}, "all", 32, MinimizeFailed)
	rt.Rand, rt.Params.InitOps, rt.Params.SimOps, rt.Params.Seed, rt.Seed = 8, 1024, 160, 54, 54
	for _, g := range []struct {
		file string
		cfg  Config
	}{
		// proteus-crash -bench QE,SS -scheme all -sweep 16 -faults torn
		{"ci-smoke.json", cliCampaign([]workload.Kind{workload.Queue, workload.StringSwap}, failSafe, "torn", 16, MinimizeFailed)},
		// proteus-crash -bench SS -scheme PMEM+nolog -sweep 220 -minimize all
		{"ss-pmemnolog-minimize.json", cliCampaign([]workload.Kind{workload.StringSwap}, []core.Scheme{core.PMEMNoLog}, "clean", 220, MinimizeAll)},
		// proteus-crash -bench SS -scheme PMEM+nolog -sweep 16 -faults torn -minimize all
		// pins mask shrinking: two minimized injections shrink 2 targets to 1.
		{"ss-pmemnolog-torn-minimize.json", cliCampaign([]workload.Kind{workload.StringSwap}, []core.Scheme{core.PMEMNoLog}, "torn", 16, MinimizeAll)},
		// rt (above) holds the open Proteus clean-crash defect: one failed
		// injection, minimized from cycle 4265 to 3727.
		{"rt-proteus-defect.json", rt},
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
