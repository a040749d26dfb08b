package core_test

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/logging"
	"repro/internal/nvm"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// releaseRun is a prepared workload: its traces and init image under one
// scheme, ready to build Systems from.
type releaseRun struct {
	cfg    config.Config
	scheme core.Scheme
	traces []*isa.Trace
	init   *nvm.Store
}

func prepareRun(t *testing.T, kind workload.Kind, scale int, scheme core.Scheme) *releaseRun {
	t.Helper()
	p := kind.DefaultParams(scale)
	p.Threads = 2
	w, err := workload.Build(kind, p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	cfg.Cores = p.Threads
	traces, err := logging.Generate(w, scheme, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &releaseRun{cfg: cfg, scheme: scheme, traces: traces, init: w.InitImage}
}

// newSystem builds a System for the run and reports the bytes the build
// allocated.
func (r *releaseRun) newSystem(t *testing.T) (*core.System, uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sys, err := core.NewSystem(r.cfg, r.scheme, r.traces, r.init)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return sys, after.TotalAlloc - before.TotalAlloc
}

// observed is what a run exposes: the stats report, the JSONL trace and
// the serialized crash image at a fixed mid-run cycle.
type observed struct {
	rep   *stats.Report
	trace []byte
	image []byte
}

const releaseCrashCycle = 3_000

func (r *releaseRun) observe(t *testing.T, sys *core.System) *observed {
	t.Helper()
	var tbuf bytes.Buffer
	tr, err := trace.NewJSONLTracer(&tbuf, trace.Meta{Label: "release", Cores: r.cfg.Cores}, 500)
	if err != nil {
		t.Fatal(err)
	}
	sys.SetTracer(tr)
	sys.Step(releaseCrashCycle)
	var img bytes.Buffer
	if err := sys.CrashImage().Serialize(&img); err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	return &observed{rep: rep, trace: tbuf.Bytes(), image: img.Bytes()}
}

// TestReleasedSystemReuseIsByteIdentical runs a workload A that spreads
// over every cache level, releases it, and runs workload B on the
// recycled cache arrays. B's report, trace and mid-run crash image must
// equal B's on fresh arrays (built while A is still held, so nothing is
// on the free list). Not parallel: it reads the heap's allocation totals.
func TestReleasedSystemReuseIsByteIdentical(t *testing.T) {
	a := prepareRun(t, workload.HashMap, 20, core.PMEM)
	b := prepareRun(t, workload.Queue, 100, core.Proteus)

	sysA, _ := a.newSystem(t)
	if _, err := sysA.Run(0); err != nil {
		t.Fatal(err)
	}
	fresh, freshBytes := b.newSystem(t)
	want := b.observe(t, fresh)

	sysA.Release()
	reused, reusedBytes := b.newSystem(t)
	got := b.observe(t, reused)

	if !reflect.DeepEqual(want.rep, got.rep) {
		t.Errorf("report on recycled arrays differs:\nfresh:  %+v\nreused: %+v", want.rep, got.rep)
	}
	if !bytes.Equal(want.trace, got.trace) {
		t.Errorf("JSONL trace on recycled arrays differs (%d vs %d bytes)", len(want.trace), len(got.trace))
	}
	if !bytes.Equal(want.image, got.image) {
		t.Errorf("crash image at cycle %d on recycled arrays differs", releaseCrashCycle)
	}
	// The recycled build must actually have reused A's arrays.
	if freshBytes < 8<<20 || reusedBytes > 1<<20 {
		t.Errorf("NewSystem allocated %d bytes fresh and %d reusing; want >8 MB and <1 MB", freshBytes, reusedBytes)
	}
}

// TestReleaseMisuse pins the Release contract: a second Release is a
// no-op (two later Systems never share its arrays), and stepping a
// released System panics instead of running on arrays it no longer owns.
func TestReleaseMisuse(t *testing.T) {
	b := prepareRun(t, workload.Queue, 200, core.Proteus)
	c := prepareRun(t, workload.RBTree, 200, core.ATOM)
	refB, _ := b.newSystem(t)
	wantB, err := refB.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	refC, _ := c.newSystem(t)
	wantC, err := refC.Run(0)
	if err != nil {
		t.Fatal(err)
	}

	a, _ := b.newSystem(t)
	a.Step(500)
	a.Release()
	a.Release()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Step on a released System did not panic")
			}
		}()
		a.Step(1)
	}()

	// If the double Release had listed A's arrays twice, sysB and sysC
	// would share them and corrupt each other while stepped in turn.
	sysB, _ := b.newSystem(t)
	sysC, _ := c.newSystem(t)
	for !sysB.Finished() || !sysC.Finished() {
		if !sysB.Finished() {
			sysB.Step(100)
		}
		if !sysC.Finished() {
			sysC.Step(100)
		}
	}
	gotB, err := sysB.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	gotC, err := sysC.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantB, gotB) || !reflect.DeepEqual(wantC, gotC) {
		t.Error("Systems built after a double Release diverge from their reference runs")
	}
}
