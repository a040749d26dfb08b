package logging

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/enum"
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
)

func (m PersistencyModel) String() string {
	switch m {
	case ModelDurableTx:
		return "durable-tx"
	case ModelStrict:
		return "strict"
	}
	return fmt.Sprintf("PersistencyModel(%d)", int(m))
}

var models = enum.Names[PersistencyModel]{What: "persistency model", Values: []PersistencyModel{ModelDurableTx, ModelStrict}}

// MarshalText encodes a persistency model by name.
func (m PersistencyModel) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText resolves a persistency model name (durable-tx, strict),
// case-insensitively.
func (m *PersistencyModel) UnmarshalText(text []byte) error { return models.Unmarshal(m, text) }

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
// thread's stream into a materialized trace, for callers that inspect or
// replay whole traces; a simulated machine streams instead (NewSystem).
func GenerateOpts(w *workload.Workload, scheme core.Scheme, cfg config.Config, opts Options) ([]*isa.Trace, error) {
	streams, err := newStreams(w, scheme, cfg, opts)
	if err != nil {
		return nil, err
	}
	traces := make([]*isa.Trace, len(streams))
	for t, s := range streams {
		var ops []isa.Op
		for win := s.Window(0); win != nil; win = s.Window(len(ops)) {
			ops = append(ops, win...)
		}
		traces[t] = &isa.Trace{Ops: ops}
	}
	return traces, nil
}

// newStreams returns one Stream per thread of the workload, each
// generating a transaction as its core reaches it.
func newStreams(w *workload.Workload, scheme core.Scheme, cfg config.Config, opts Options) ([]*Stream, error) {
	if err := checkScheme(scheme); err != nil {
		return nil, err
	}
	streams := make([]*Stream, len(w.Heaps))
	for t, h := range w.Heaps {
		streams[t] = &Stream{g: newGen(h, scheme, cfg, w.InitImage, opts), txns: h.Txns}
	}
	return streams, nil
}

// NewSystem builds a machine for the scheme at cycle 0 whose cores fetch
// from fresh streams of the workload. Streams are read once, so a machine
// rebuilt from cycle 0 is another call; generation only reads the
// workload, so concurrent calls share nothing mutable. The streams are
// returned for their counts (Stream.LogFlushes) once the run is over. The
// caller must Release the System.
func NewSystem(w *workload.Workload, scheme core.Scheme, cfg config.Config, opts Options) (*core.System, []*Stream, error) {
	streams, err := newStreams(w, scheme, cfg, opts)
	if err != nil {
		return nil, nil, err
	}
	srcs := make([]cpu.Source, len(streams))
	for i, s := range streams {
		srcs[i] = s
	}
	sys, err := core.NewStreamedSystem(cfg, scheme, srcs, w.InitImage)
	if err != nil {
		return nil, nil, err
	}
	return sys, streams, nil
}
