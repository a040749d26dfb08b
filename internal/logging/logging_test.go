package logging

import (
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/isa"
	"repro/internal/nvm"
	"repro/internal/recovery"
	"repro/internal/workload"
)

func buildSmall(t *testing.T) *workload.Workload {
	t.Helper()
	w, err := workload.Build(workload.Queue, workload.Params{Threads: 2, InitOps: 32, SimOps: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func genTraces(t *testing.T, w *workload.Workload, s core.Scheme) []*isa.Trace {
	t.Helper()
	traces, err := Generate(w, s, config.Default())
	if err != nil {
		t.Fatal(err)
	}
	return traces
}

// TestSchemeComposition checks the structural properties of each scheme's
// expansion.
func TestSchemeComposition(t *testing.T) {
	w := buildSmall(t)

	sw := genTraces(t, w, core.PMEM)[0].Summarize()
	if sw.Sfences != 4*16 {
		t.Errorf("PMEM sfences per thread = %d, want %d (4 per txn)", sw.Sfences, 4*16)
	}
	if sw.Pcommits != 0 {
		t.Errorf("PMEM has pcommits")
	}
	if sw.LogLoads != 0 || sw.LogFlushes != 0 {
		t.Errorf("PMEM has hardware log ops")
	}
	if sw.Clwbs == 0 {
		t.Errorf("PMEM has no clwbs")
	}

	pc := genTraces(t, w, core.PMEMPcommit)[0].Summarize()
	if pc.Pcommits != pc.Sfences {
		t.Errorf("PMEM+pcommit: %d pcommits for %d sfences", pc.Pcommits, pc.Sfences)
	}

	nl := genTraces(t, w, core.PMEMNoLog)[0].Summarize()
	if nl.Sfences != 16 {
		t.Errorf("nolog sfences = %d, want 1 per txn", nl.Sfences)
	}
	if nl.Stores >= sw.Stores {
		t.Errorf("nolog stores (%d) not fewer than PMEM (%d)", nl.Stores, sw.Stores)
	}

	hw := genTraces(t, w, core.ATOM)[0].Summarize()
	if hw.Clwbs != 0 || hw.Sfences != 0 {
		t.Errorf("ATOM trace has explicit persist ops")
	}

	pr := genTraces(t, w, core.Proteus)[0].Summarize()
	if pr.LogLoads != pr.LogFlushes {
		t.Errorf("Proteus log-loads %d != log-flushes %d", pr.LogLoads, pr.LogFlushes)
	}
	if pr.LogLoads != pr.Stores {
		t.Errorf("Proteus: %d log pairs for %d stores (Figure 4: one pair per store)", pr.LogLoads, pr.Stores)
	}
	if pr.TxBegins != 16 || pr.TxEnds != 16 {
		t.Errorf("Proteus tx markers: %d/%d", pr.TxBegins, pr.TxEnds)
	}
}

// TestProteusExpansionOrder verifies the Figure 4 instruction order:
// log-load, log-flush, then the store, with matching addresses.
func TestProteusExpansionOrder(t *testing.T) {
	w := buildSmall(t)
	tr := genTraces(t, w, core.Proteus)[0]
	for i, op := range tr.Ops {
		if op.Kind == isa.St && isa.IsPersistentAddr(op.Addr) && op.Tx != 0 {
			// Find the preceding log-flush / log-load pair.
			j := i - 1
			for j >= 0 && tr.Ops[j].Kind == isa.Alu {
				j--
			}
			if j < 1 || tr.Ops[j].Kind != isa.LogFlush || tr.Ops[j-1].Kind != isa.LogLoad {
				t.Fatalf("op %d: store not preceded by log-load/log-flush (%v, %v)", i, tr.Ops[j-1].Kind, tr.Ops[j].Kind)
			}
			if tr.Ops[j].Addr != isa.LogBlockAddr(op.Addr) {
				t.Fatalf("op %d: log-from %#x does not cover store %#x", i, tr.Ops[j].Addr, op.Addr)
			}
		}
	}
}

// TestSWLogPrecedesData verifies Figure 2's step ordering per transaction:
// every store to the log area precedes every data store, separated by
// sfences.
func TestSWLogPrecedesData(t *testing.T) {
	w := buildSmall(t)
	tr := genTraces(t, w, core.PMEM)[0]
	inTx := false
	seenFence := 0
	for i, op := range tr.Ops {
		switch op.Kind {
		case isa.TxBegin:
			inTx = true
			seenFence = 0
		case isa.TxEnd:
			if seenFence != 4 {
				t.Fatalf("op %d: txn ended after %d sfences, want 4", i, seenFence)
			}
			inTx = false
		case isa.Sfence:
			if inTx {
				seenFence++
			}
		case isa.St:
			if !inTx {
				break
			}
			if isa.IsLogAddr(op.Addr) && seenFence > 0 {
				t.Fatalf("op %d: log store after fence %d", i, seenFence)
			}
			if isa.IsPersistentAddr(op.Addr) && !isa.IsLogAddr(op.Addr) && op.Addr != tr.Ops[0].Addr {
				// Data stores belong to steps 2-4 (after the first fence).
				if seenFence == 0 {
					// the logFlag line is persistent heap; data stores
					// proper come after fence 2 — but the flag store is
					// after fence 1. Either way, nothing before fence 1.
					t.Fatalf("op %d: data store before the log persisted", i)
				}
			}
		}
	}
}

// TestDeterminism: the same workload and scheme generate identical traces.
func TestDeterminism(t *testing.T) {
	w1 := buildSmall(t)
	w2 := buildSmall(t)
	t1 := genTraces(t, w1, core.Proteus)
	t2 := genTraces(t, w2, core.Proteus)
	if len(t1) != len(t2) {
		t.Fatal("trace count differs")
	}
	for i := range t1 {
		if len(t1[i].Ops) != len(t2[i].Ops) {
			t.Fatalf("thread %d: op count differs", i)
		}
		for j := range t1[i].Ops {
			if t1[i].Ops[j] != t2[i].Ops[j] {
				t.Fatalf("thread %d op %d differs: %v vs %v", i, j, t1[i].Ops[j], t2[i].Ops[j])
			}
		}
	}
}

// TestStrictPersistencyComposition: strict mode fences after every
// persistent store; the durable-tx model keeps Figure 2's four fences.
func TestStrictPersistencyComposition(t *testing.T) {
	w := buildSmall(t)
	cfg := config.Default()
	strict, err := GenerateOpts(w, core.PMEM, cfg, Options{Model: ModelStrict})
	if err != nil {
		t.Fatal(err)
	}
	normal, err := GenerateOpts(w, core.PMEM, cfg, Options{Model: ModelDurableTx})
	if err != nil {
		t.Fatal(err)
	}
	ss, ns := strict[0].Summarize(), normal[0].Summarize()
	if ss.Sfences <= ns.Sfences {
		t.Fatalf("strict fences (%d) not above durable-tx fences (%d)", ss.Sfences, ns.Sfences)
	}
	if ss.Stores != ns.Stores {
		t.Fatalf("models changed store count: %d vs %d", ss.Stores, ns.Stores)
	}
	// Epoch coincides with durable-tx for these workloads.
	epoch, err := GenerateOpts(w, core.PMEM, cfg, Options{Model: ModelEpoch})
	if err != nil {
		t.Fatal(err)
	}
	if es := epoch[0].Summarize(); es.Sfences != ns.Sfences || es.Stores != ns.Stores {
		t.Fatalf("epoch differs from durable-tx: %+v vs %+v", es, ns)
	}
}

// TestStaticLogElimination: the compiler pass emits at most one log pair
// per 32-byte block per transaction and never more pairs than the plain
// expansion.
func TestStaticLogElimination(t *testing.T) {
	w := buildSmall(t)
	cfg := config.Default()
	static, err := GenerateOpts(w, core.Proteus, cfg, Options{StaticLogElim: true})
	if err != nil {
		t.Fatal(err)
	}
	dynamic, err := GenerateOpts(w, core.Proteus, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, dy := static[0].Summarize(), dynamic[0].Summarize()
	if st.LogFlushes >= dy.LogFlushes {
		t.Fatalf("static elimination removed nothing: %d vs %d", st.LogFlushes, dy.LogFlushes)
	}
	if st.Stores != dy.Stores {
		t.Fatalf("store counts differ: %d vs %d", st.Stores, dy.Stores)
	}
	// Per transaction, no block is logged twice.
	seen := make(map[uint64]bool)
	for _, op := range static[0].Ops {
		switch op.Kind {
		case isa.TxBegin:
			seen = make(map[uint64]bool)
		case isa.LogFlush:
			if seen[op.Addr] {
				t.Fatalf("block %#x logged twice in one txn", op.Addr)
			}
			seen[op.Addr] = true
		}
	}
}

// TestStaticElimRecoveryStillSound: static elimination must not break
// crash recovery (the single emitted pair carries the true pre-image).
func TestStaticElimRecoveryStillSound(t *testing.T) {
	w := buildSmall(t)
	cfg := config.Default()
	cfg.Cores = 2
	traces, err := GenerateOpts(w, core.Proteus, cfg, Options{StaticLogElim: true})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(cfg, core.Proteus, traces, w.InitImage)
	if err != nil {
		t.Fatal(err)
	}
	oracle := recovery.NewOracle(w)
	for !sys.Finished() {
		sys.Step(499)
		img := sys.CrashImage()
		if _, err := recovery.Recover(img, core.Proteus, cfg.Cores); err != nil {
			t.Fatalf("cycle %d: %v", sys.Cycle(), err)
		}
		counts := make([]int, cfg.Cores)
		for i, cs := range sys.Commits() {
			counts[i] = len(cs)
		}
		if _, err := oracle.VerifyPrefix(img, counts); err != nil {
			t.Fatalf("cycle %d: %v", sys.Cycle(), err)
		}
	}
}

// TestWriteLines checks the generator's write-line set: distinct lines in
// first-write order, with nothing left over from the previous use of the
// reused scratch.
func TestWriteLines(t *testing.T) {
	h := heap.New(0, nvm.NewStore())
	a := h.Alloc(128)
	b := h.Alloc(64)
	h.SetRecording(true)
	h.Begin(0)
	h.Store(a+64, 3) // second line first
	h.Store(a, 1)
	h.Store(a+8, 2) // same line
	txn := h.End()
	h.Begin(0)
	h.Store(b, 4)
	other := h.End()
	var g gen
	if lines := g.writeLines(other); !reflect.DeepEqual(lines, []uint64{b}) {
		t.Fatalf("write lines %#x, want [%#x]", lines, b)
	}
	if lines := g.writeLines(txn); !reflect.DeepEqual(lines, []uint64{a + 64, a}) {
		t.Fatalf("write lines %#x, want [%#x %#x]", lines, a+64, a)
	}
}

// TestStreamMatchesDrain reads every scheme's streams window by window
// and checks that the windows concatenate to GenerateOpts's traces, one
// transaction per window, with the stream's transaction and log-flush
// counts equal to the trace's.
func TestStreamMatchesDrain(t *testing.T) {
	w := buildSmall(t)
	cfg := config.Default()
	for _, s := range core.Schemes {
		for _, opts := range []Options{{}, {Model: ModelStrict}, {StaticLogElim: true}} {
			traces, err := GenerateOpts(w, s, cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			streams, err := NewStreams(w, s, cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i, st := range streams {
				var got []isa.Op
				windows := 0
				for win := st.Window(0); len(win) > 0; win = st.Window(len(got)) {
					got = append(got, win...)
					windows++
				}
				tr := traces[i]
				if !reflect.DeepEqual(got, tr.Ops) {
					t.Fatalf("%v %+v thread %d: streamed ops differ from the drained trace (%d vs %d ops)", s, opts, i, len(got), tr.Len())
				}
				if windows != tr.Txns() || st.Txns() != tr.Txns() {
					t.Errorf("%v thread %d: %d windows, Txns() %d, trace holds %d transactions", s, i, windows, st.Txns(), tr.Txns())
				}
				if st.LogFlushes() != uint64(tr.Summarize().LogFlushes) {
					t.Errorf("%v thread %d: stream counted %d log-flushes, trace holds %d", s, i, st.LogFlushes(), tr.Summarize().LogFlushes)
				}
			}
		}
	}
}
