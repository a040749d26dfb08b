package heap

import (
	"testing"

	"repro/internal/isa"
)

func TestAllocAlignmentAndWindows(t *testing.T) {
	h := New(2)
	base, limit := isa.HeapWindow(2)
	for i := 0; i < 100; i++ {
		a := h.Alloc(64)
		if a%isa.LineSize != 0 {
			t.Fatalf("alloc %#x not line-aligned", a)
		}
		if a < base || a >= limit {
			t.Fatalf("alloc %#x outside window [%#x,%#x)", a, base, limit)
		}
	}
}

func TestAllocFreeReuse(t *testing.T) {
	h := New(0)
	a := h.Alloc(64)
	h.Free(a, 64)
	b := h.Alloc(64)
	if a != b {
		t.Fatalf("free list not reused: %#x vs %#x", a, b)
	}
}

func TestAllocDistinct(t *testing.T) {
	h := New(0)
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		a := h.Alloc(64)
		if seen[a] {
			t.Fatalf("alloc returned %#x twice", a)
		}
		seen[a] = true
	}
}

func TestRecording(t *testing.T) {
	h := New(0)
	a := h.Alloc(64)
	h.Store(a, 1) // unrecorded: recording off

	h.SetRecording(true)
	h.Begin(0xF00)
	h.Store(a, 2)
	h.Store(a+8, 3)
	h.LogHint(a, 64)
	if v := h.Load(a); v != 2 {
		t.Fatalf("load %d", v)
	}
	txn := h.End()

	if len(h.Txns) != 1 {
		t.Fatalf("%d txns recorded", len(h.Txns))
	}
	if txn.Lock != 0xF00 {
		t.Fatalf("lock %#x", txn.Lock)
	}
	if len(txn.Ops) != 3 { // 2 stores + 1 load
		t.Fatalf("%d ops", len(txn.Ops))
	}
	if txn.Pre[a] != 1 || txn.Post[a] != 2 {
		t.Fatalf("pre/post: %d/%d", txn.Pre[a], txn.Post[a])
	}
	if txn.Pre[a+8] != 0 || txn.Post[a+8] != 3 {
		t.Fatalf("pre/post of fresh word: %d/%d", txn.Pre[a+8], txn.Post[a+8])
	}
	if len(txn.Hints) != 1 || txn.Hints[0].Addr != a {
		t.Fatalf("hints: %+v", txn.Hints)
	}
}

func TestPreCapturesFirstValueOnly(t *testing.T) {
	h := New(0)
	a := h.Alloc(64)
	h.Store(a, 10)
	h.SetRecording(true)
	h.Begin(0)
	h.Store(a, 20)
	h.Store(a, 30)
	txn := h.End()
	if txn.Pre[a] != 10 {
		t.Fatalf("pre %d, want 10 (first value before txn)", txn.Pre[a])
	}
	if txn.Post[a] != 30 {
		t.Fatalf("post %d, want 30", txn.Post[a])
	}
}

func TestAllocsRecorded(t *testing.T) {
	h := New(0)
	h.SetRecording(true)
	h.Begin(0)
	a := h.Alloc(64)
	txn := h.End()
	if len(txn.Allocs) != 1 || txn.Allocs[0].Addr != a {
		t.Fatalf("allocs: %+v", txn.Allocs)
	}
}

func TestRecordingOffDiscardsTxn(t *testing.T) {
	h := New(0)
	a := h.Alloc(64)
	h.Begin(0)
	h.Store(a, 1)
	h.End()
	if len(h.Txns) != 0 {
		t.Fatalf("unrecorded txn kept: %d", len(h.Txns))
	}
	// Functional effect still applied.
	if h.Load(a) != 1 {
		t.Fatal("functional store lost")
	}
}
