package logging

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/workload"
)

// PersistencyModel selects how the software schemes order persists
// (§2.1's taxonomy). It only affects the PMEM-based schemes; the hardware
// schemes order persists in hardware.
type PersistencyModel int

const (
	// ModelDurableTx is the paper's baseline: the four Figure 2 steps,
	// each closed by clwb(s) and one sfence — an epoch per step.
	ModelDurableTx PersistencyModel = iota
	// ModelStrict implements strict persistency: every persistent store
	// is followed by clwb + sfence, serializing all persists in program
	// order (§2.1: "significant performance costs of not allowing write
	// reordering and write coalescing").
	ModelStrict
	// ModelEpoch implements epoch persistency with one epoch per
	// transaction step but clwbs issued as stores complete — identical
	// step boundaries to ModelDurableTx with per-line flushes batched at
	// the epoch end. (For the modeled workloads this coincides with
	// ModelDurableTx; it exists so the taxonomy is complete and the
	// equivalence is checkable.)
	ModelEpoch
)

func (m PersistencyModel) String() string {
	switch m {
	case ModelDurableTx:
		return "durable-tx"
	case ModelStrict:
		return "strict"
	case ModelEpoch:
		return "epoch"
	}
	return fmt.Sprintf("PersistencyModel(%d)", int(m))
}

// Options tunes code generation.
type Options struct {
	// Model selects the persistency model for software schemes.
	Model PersistencyModel
	// StaticLogElim enables the compiler-side alternative to the LLT
	// (§4.2: "eliminating unnecessary logging can be achieved through
	// compiler analysis"): log-load/log-flush pairs whose 32-byte block
	// was already logged earlier in the same transaction are not emitted
	// at all. It represents a perfect-alias-knowledge compiler; the
	// hardware LLT achieves the same filtering dynamically.
	StaticLogElim bool
}

// GenerateOpts is Generate with explicit options. It drains each
// thread's generator into a materialized trace, for callers that replay
// or inspect whole traces; a one-shot run streams instead (NewStreams).
func GenerateOpts(w *workload.Workload, scheme core.Scheme, cfg config.Config, opts Options) ([]*isa.Trace, error) {
	if err := checkScheme(scheme); err != nil {
		return nil, err
	}
	traces := make([]*isa.Trace, len(w.Heaps))
	for t, h := range w.Heaps {
		g := newGen(h, scheme, cfg, w.InitImage, opts)
		traces[t] = g.drain(h)
	}
	return traces, nil
}

// NewStreams returns one Stream per thread of the workload: the op
// sources of a streamed run (core.NewStreamedSystem), which generates
// each transaction as its core reaches it. Each stream's ops equal
// GenerateOpts's trace for that thread.
func NewStreams(w *workload.Workload, scheme core.Scheme, cfg config.Config, opts Options) ([]*Stream, error) {
	if err := checkScheme(scheme); err != nil {
		return nil, err
	}
	streams := make([]*Stream, len(w.Heaps))
	for t, h := range w.Heaps {
		s := &Stream{g: newGen(h, scheme, cfg, w.InitImage, opts), txns: h.Txns}
		s.g.stream = true
		streams[t] = s
	}
	return streams, nil
}
