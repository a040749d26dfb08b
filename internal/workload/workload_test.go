package workload

import (
	"testing"

	"repro/internal/isa"
)

func TestBuildAllKinds(t *testing.T) {
	for _, kind := range append(append([]Kind{}, Table2...), LinkedList) {
		kind := kind
		t.Run(kind.Abbrev(), func(t *testing.T) {
			p := Params{Threads: 2, InitOps: 64, SimOps: 16, Seed: 1,
				SSItems: 128, SSStrSize: 256, ListNodes: 4, ListElems: 32}
			w, err := Build(kind, p)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Check(); err != nil {
				t.Fatal(err)
			}
			if len(w.Heaps) != p.Threads {
				t.Fatalf("%d heaps", len(w.Heaps))
			}
			for th, h := range w.Heaps {
				if len(h.Txns) != p.SimOps {
					t.Fatalf("thread %d recorded %d txns, want %d", th, len(h.Txns), p.SimOps)
				}
				for i, txn := range h.Txns {
					if txn.ID != uint32(i+1) {
						t.Fatalf("thread %d txn %d has ID %d", th, i, txn.ID)
					}
					if len(txn.Ops) == 0 {
						t.Fatalf("thread %d txn %d empty", th, i)
					}
					if !isa.IsVolatileAddr(txn.Lock) {
						t.Fatalf("lock %#x not volatile", txn.Lock)
					}
					// Every access stays inside the thread's heap window.
					base, limit := isa.HeapWindow(th)
					for _, a := range txn.Ops {
						if a.Addr < base || a.Addr >= limit {
							t.Fatalf("thread %d access %#x outside window", th, a.Addr)
						}
					}
				}
			}
		})
	}
}

func TestThreadPartitioning(t *testing.T) {
	// Two builds with different thread counts must both work; and threads
	// never share write lines.
	w, err := Build(HashMap, Params{Threads: 3, InitOps: 96, SimOps: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	owner := make(map[uint64]int)
	for th, h := range w.Heaps {
		for _, txn := range h.Txns {
			for a := range txn.Pre {
				line := isa.LineAddr(a)
				if prev, ok := owner[line]; ok && prev != th {
					t.Fatalf("line %#x written by threads %d and %d", line, prev, th)
				}
				owner[line] = th
			}
		}
	}
}

// TestBuildThreadLimit: Build takes isa.MaxThreads threads, whose heap
// lines all stay below the log areas, and rejects one thread more.
func TestBuildThreadLimit(t *testing.T) {
	p := Params{Threads: isa.MaxThreads, InitOps: 64, SimOps: 1, Seed: 1}
	w, err := Build(Queue, p)
	if err != nil {
		t.Fatal(err)
	}
	if lines := w.InitImage.LinesIn(isa.LogBase, isa.VolatileBase); len(lines) != 0 {
		t.Fatalf("%d threads leave %d heap lines in the log areas, from %#x", p.Threads, len(lines), lines[0])
	}
	p.Threads++
	if _, err := Build(Queue, p); err == nil {
		t.Fatalf("Build accepted %d threads", p.Threads)
	}
}

func TestDefaultParams(t *testing.T) {
	for _, k := range Table2 {
		p := k.DefaultParams(1)
		if p.Threads != 4 {
			t.Fatalf("%v: threads %d", k, p.Threads)
		}
		if p.SimOps <= 0 || p.InitOps <= 0 {
			t.Fatalf("%v: non-positive ops", k)
		}
	}
	// Table 2 exact counts at scale 1.
	if p := Queue.DefaultParams(1); p.InitOps != 20000 || p.SimOps != 50000 {
		t.Fatalf("QE params: %+v", p)
	}
	if p := HashMap.DefaultParams(1); p.InitOps != 100000 || p.SimOps != 20000 {
		t.Fatalf("HM params: %+v", p)
	}
	if p := AVLTree.DefaultParams(1); p.InitOps != 100000 || p.SimOps != 10000 {
		t.Fatalf("AT params: %+v", p)
	}
}

func TestDeterministicRecording(t *testing.T) {
	p := Params{Threads: 2, InitOps: 64, SimOps: 16, Seed: 9}
	w1, _ := Build(RBTree, p)
	w2, _ := Build(RBTree, p)
	for th := range w1.Heaps {
		a, b := w1.Heaps[th].Txns, w2.Heaps[th].Txns
		if len(a) != len(b) {
			t.Fatal("txn count differs")
		}
		for i := range a {
			if len(a[i].Ops) != len(b[i].Ops) {
				t.Fatalf("thread %d txn %d op count differs", th, i)
			}
			for j := range a[i].Ops {
				if a[i].Ops[j] != b[i].Ops[j] {
					t.Fatalf("thread %d txn %d op %d differs", th, i, j)
				}
			}
		}
	}
}

// TestInitImagePredatesSimOps: for every Table 2 benchmark, the init
// image holds the state before the timed ops and the heaps' image the
// state after them. Across the recording order (each thread's
// transactions, thread by thread), the first transaction to write a word
// found its pre-image in the init image, and the last one left its
// post-image in every heap's image.
func TestInitImagePredatesSimOps(t *testing.T) {
	for _, k := range Table2 {
		p := k.DefaultParams(200)
		p.Threads = 2
		w, err := Build(k, p)
		if err != nil {
			t.Fatal(err)
		}
		first, last := map[uint64]uint64{}, map[uint64]uint64{}
		for _, h := range w.Heaps {
			for _, txn := range h.Txns {
				for a, pre := range txn.Pre {
					if _, ok := first[a]; !ok {
						first[a] = pre
					}
					last[a] = txn.Post[a]
				}
			}
		}
		if len(first) == 0 {
			t.Fatalf("%v: the timed ops wrote no word", k)
		}
		for a, pre := range first {
			if got := w.InitImage.ReadUint64(a); got != pre {
				t.Fatalf("%v: init image at %#x = %#x, first writer's pre-image = %#x", k, a, got, pre)
			}
		}
		for th, h := range w.Heaps {
			for a, post := range last {
				if got := h.Image().ReadUint64(a); got != post {
					t.Fatalf("%v: thread %d heap image at %#x = %#x, last writer's post-image = %#x", k, th, a, got, post)
				}
			}
		}
	}
}

func TestOpMix(t *testing.T) {
	// Lookup-heavy mix: transactions exist but most write nothing.
	p := Params{Threads: 1, InitOps: 128, SimOps: 64, Seed: 4,
		Mix: OpMix{InsertPct: 10, DeletePct: 10, LookupPct: 80}}
	w, err := Build(HashMap, p)
	if err != nil {
		t.Fatal(err)
	}
	readOnly := 0
	for _, txn := range w.Heaps[0].Txns {
		if len(txn.Pre) == 0 {
			readOnly++
		}
	}
	if readOnly < 64/4 {
		t.Fatalf("only %d of 64 transactions were read-only under an 80%% lookup mix", readOnly)
	}
	// Invalid mixes are rejected.
	if _, err := Build(HashMap, Params{Threads: 1, InitOps: 16, SimOps: 8,
		Mix: OpMix{InsertPct: 60, DeletePct: 60}}); err == nil {
		t.Fatal("mix summing to 120 accepted")
	}
}
