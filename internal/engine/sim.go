package engine

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/workload"
)

// SimSpec names one single run the way proteus-sim's flags do: the
// benchmark, scheme and memory kind by name, and the sizes that override
// the benchmark's Table 2 shape. proteus-sim and the job server's "sim"
// spec both build their Job through it, so the CLI and HTTP name the
// same tuple and share its cache entries.
type SimSpec struct {
	Bench, Scheme, Mem string
	Threads            int
	// SimOps and InitOps are per thread; 0 keeps the reduced scale:
	// Table 2's timed operations / 25 (at least 8) and its full
	// initialization.
	SimOps, InitOps int
	Seed            int64
	LogQ, LPQ       int
}

// DefaultSimSpec holds proteus-sim's defaults.
var DefaultSimSpec = SimSpec{Bench: "QE", Scheme: "Proteus", Mem: "nvm-fast", Threads: 4, Seed: 42, LogQ: 16, LPQ: 256}

// maxSpecOps bounds a spec's per-thread operation counts at Table 2's
// largest. A workload build does not check its context, so a larger
// count would outlive every job timeout.
const maxSpecOps = 100_000

// Job resolves the spec's names and sizes its workload and machine. It
// rejects operation counts above Table 2's and machines Validate
// rejects, before anything is built.
func (s SimSpec) Job() (Job, error) {
	if s.SimOps > maxSpecOps || s.InitOps > maxSpecOps {
		return Job{}, fmt.Errorf("engine: at most %d simops and initops per thread (got %d, %d)", maxSpecOps, s.SimOps, s.InitOps)
	}
	kind, err := workload.KindByName(s.Bench)
	if err != nil {
		return Job{}, err
	}
	scheme, err := core.SchemeByName(s.Scheme)
	if err != nil {
		return Job{}, err
	}
	var mem config.MemKind
	if err := mem.UnmarshalText([]byte(s.Mem)); err != nil {
		return Job{}, err
	}
	p := kind.DefaultParams(1)
	p.Threads = s.Threads
	p.Seed = s.Seed
	if s.SimOps > 0 {
		p.SimOps = s.SimOps
	} else {
		p.SimOps = max(p.SimOps/25, 8)
	}
	if s.InitOps > 0 {
		p.InitOps = s.InitOps
	}
	cfg := config.Default().WithMemKind(mem)
	cfg.Cores = s.Threads
	cfg.Proteus.LogQ = s.LogQ
	cfg.Mem.LPQ = s.LPQ
	if err := cfg.Validate(); err != nil {
		return Job{}, err
	}
	return Job{Kind: kind, Scheme: scheme, Params: p, Config: cfg}, nil
}
