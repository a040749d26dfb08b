package crashcampaign

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/nvm"
	"repro/internal/workload"
)

// TestForwardPassMatchesFromScratch is the forward pass's equivalence
// gate: in a small campaign, every InjectionResult equals Target.evaluate
// replayed from cycle 0, and every crash image the single forward pass
// hands the classifier serializes to the bytes a from-scratch replay to
// its cycle produces, with the same committed counts.
func TestForwardPassMatchesFromScratch(t *testing.T) {
	ctx := context.Background()
	c := testConfig(2)
	c.Benches = []workload.Kind{workload.Queue, workload.RBTree}
	c.Schemes = []core.Scheme{core.PMEM, core.ATOM, core.Proteus}
	c.Sweep, c.Rand = 8, 4
	c.Faults = AllFaults
	c.Normalize()
	rep, err := Run(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range rep.Tuples {
		bench, err := workload.KindByName(tu.Bench)
		if err != nil {
			t.Fatal(err)
		}
		scheme, err := core.SchemeByName(tu.Scheme)
		if err != nil {
			t.Fatal(err)
		}
		wl, err := c.Engine.Workload(ctx, bench, c.Params)
		if err != nil {
			t.Fatal(err)
		}
		tgt := NewTarget(tu.Bench, scheme, c.Sim, wl, OracleExpectation(wl, scheme))
		tgt.Seed = c.Seed
		var faults []Fault
		for _, f := range c.Faults {
			if f.AppliesTo(scheme) {
				faults = append(faults, f)
			}
		}
		if len(tu.Injections) != len(tu.Points)*len(faults) {
			t.Fatalf("%s/%s: %d injections for %d points × %d faults", tu.Bench, tu.Scheme, len(tu.Injections), len(tu.Points), len(faults))
		}
		err = tgt.sweep(ctx, tu.Points, faults, func(i int, inj Injection, img *nvm.Store, committed []int) {
			name := fmt.Sprintf("%s/%s %v@%d", tu.Bench, tu.Scheme, inj.Fault, inj.Cycle)
			var fwd bytes.Buffer
			if err := img.Serialize(&fwd); err != nil {
				t.Fatal(err)
			}
			_, scratch, scratchCommitted, err := tgt.crash(inj)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fwd.Bytes(), scratch) || !slices.Equal(committed, scratchCommitted) {
				t.Errorf("%s: the forward pass's crash image (committed %v) differs from the from-scratch one (committed %v)",
					name, committed, scratchCommitted)
			}
			out, detail, err := tgt.evaluate(inj)
			if err != nil {
				t.Fatal(err)
			}
			want := InjectionResult{Cycle: inj.Cycle, Fault: inj.Fault.String(), Outcome: out, Detail: detail}
			if got := tu.Injections[i]; got.Cycle != want.Cycle || got.Fault != want.Fault ||
				got.Outcome != want.Outcome || got.Detail != want.Detail {
				t.Errorf("%s: campaign reports %+v, from-scratch replay %+v", name, got, want)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// fuzzTargets caches, per (benchmark, scheme), the target and its run
// length for FuzzCrashImageEquivalence.
var fuzzTargets struct {
	sync.Mutex
	m map[[2]int]*fuzzTarget
}

type fuzzTarget struct {
	tgt   *Target
	total uint64
}

func targetFor(t *testing.T, kind workload.Kind, scheme core.Scheme) *fuzzTarget {
	fuzzTargets.Lock()
	defer fuzzTargets.Unlock()
	key := [2]int{int(kind), int(scheme)}
	if ft := fuzzTargets.m[key]; ft != nil {
		return ft
	}
	c := testConfig(1)
	c.Normalize()
	wl, err := workload.Build(kind, c.Params)
	if err != nil {
		t.Fatal(err)
	}
	tgt := NewTarget(kind.Abbrev(), scheme, c.Sim, wl, OracleExpectation(wl, scheme))
	sys, err := tgt.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Release()
	rep, err := sys.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if fuzzTargets.m == nil {
		fuzzTargets.m = make(map[[2]int]*fuzzTarget)
	}
	ft := &fuzzTarget{tgt: tgt, total: rep.Cycles}
	fuzzTargets.m[key] = ft
	return ft
}

// FuzzCrashImageEquivalence compares two crash images of the same
// injection: one from a machine that has already taken, recovered and
// judged images under every fault model at two earlier cycles, one from
// a fresh machine replayed to the cycle. Both images, their Snapshots,
// and the recovered images must serialize to the same bytes, and both
// must classify alike. cycleSel places the crash point at cycleSel/65536
// of the run; mask selects the fault's targets by bit (0 faults them all).
//
// Run with `go test -fuzz=FuzzCrashImageEquivalence ./internal/crashcampaign`;
// under plain `go test` the checked-in corpus in testdata/fuzz acts as a
// regression suite.
func FuzzCrashImageEquivalence(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(1), int64(7), uint16(20000), uint64(0))
	f.Add(uint8(1), uint8(2), uint8(2), int64(1), uint16(900), uint64(5))
	f.Add(uint8(2), uint8(4), uint8(3), int64(54), uint16(65535), uint64(0b1011))
	f.Add(uint8(5), uint8(1), uint8(1), int64(3), uint16(40000), uint64(1))
	f.Fuzz(func(t *testing.T, benchSel, schemeSel, faultSel uint8, seed int64, cycleSel uint16, mask uint64) {
		kind := workload.Table2[int(benchSel)%len(workload.Table2)]
		scheme := core.Schemes[int(schemeSel)%len(core.Schemes)]
		fault := AllFaults[int(faultSel)%len(AllFaults)]
		ft := targetFor(t, kind, scheme)
		tgt := *ft.tgt
		tgt.Seed = seed
		cores := tgt.Sim.Cores
		cycle := 1 + uint64(cycleSel)*ft.total>>16 // cycleSel/65536 of the run
		inj := tgt.Injection(fault, cycle)

		warm, err := tgt.NewSystem()
		if err != nil {
			t.Fatal(err)
		}
		defer warm.Release()
		for _, c := range []uint64{cycle / 3, 2 * cycle / 3} {
			stepTo(warm, c)
			committed := warm.CommittedCounts()
			for _, earlier := range AllFaults {
				tgt.Classify(tgt.Injection(earlier, warm.Cycle()).Apply(warm, cores), earlier, committed)
			}
		}
		stepTo(warm, cycle)
		if mask != 0 {
			inj.Mask = []int{}
			for i := 0; i < min(inj.Targets(warm, cores), 64); i++ {
				if mask>>i&1 != 0 {
					inj.Mask = append(inj.Mask, i)
				}
			}
		}
		fresh, err := tgt.SystemAt(cycle)
		if err != nil {
			t.Fatal(err)
		}
		defer fresh.Release()

		serialize := func(s *nvm.Store) []byte {
			var b bytes.Buffer
			if err := s.Serialize(&b); err != nil {
				t.Fatal(err)
			}
			return b.Bytes()
		}
		got, want := inj.Apply(warm, cores), inj.Apply(fresh, cores)
		name := fmt.Sprintf("%v/%v %v@%d mask %v", kind.Abbrev(), scheme, fault, cycle, inj.Mask)
		g, w := serialize(got), serialize(want)
		if !bytes.Equal(g, w) {
			t.Fatalf("%s: the warm machine's crash image differs from the fresh one's", name)
		}
		if !bytes.Equal(serialize(got.Snapshot()), w) || !bytes.Equal(serialize(want.Snapshot()), w) {
			t.Fatalf("%s: a crash image's Snapshot serializes differently from the image", name)
		}
		gotOut, gotDetail := tgt.Classify(got, fault, warm.CommittedCounts())
		wantOut, wantDetail := tgt.Classify(want, fault, fresh.CommittedCounts())
		if gotOut != wantOut || gotDetail != wantDetail {
			t.Fatalf("%s: warm image classifies %s %q, fresh %s %q", name, gotOut, gotDetail, wantOut, wantDetail)
		}
		if !bytes.Equal(serialize(got), serialize(want)) {
			t.Fatalf("%s: the recovered images differ", name)
		}
	})
}
