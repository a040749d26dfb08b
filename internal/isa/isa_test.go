package isa

import (
	"fmt"
	"testing"
)

// TestAddressRegions: every thread below MaxThreads has non-degenerate
// heap, log and volatile windows inside their regions and classified as
// such, and no two windows of any threads overlap.
func TestAddressRegions(t *testing.T) {
	type window struct {
		name        string
		base, limit uint64
	}
	var all []window
	for thread := 0; thread < MaxThreads; thread++ {
		hb, hl := HeapWindow(thread)
		lb, ll := LogWindow(thread)
		vb, vl := VolatileWindow(thread)
		if hb >= hl || lb >= ll || vb >= vl {
			t.Fatalf("thread %d: degenerate window", thread)
		}
		if hb < HeapBase || hl > LogBase || lb < LogBase || ll > VolatileBase || vb < VolatileBase {
			t.Errorf("thread %d: window outside its region: heap [%#x,%#x) log [%#x,%#x) volatile %#x",
				thread, hb, hl, lb, ll, vb)
		}
		if !IsPersistentAddr(hb) || !IsPersistentAddr(hl-1) {
			t.Errorf("heap window of %d not persistent", thread)
		}
		if !IsLogAddr(lb) || !IsLogAddr(ll-1) {
			t.Errorf("log window of %d not log", thread)
		}
		if IsLogAddr(hb) || IsLogAddr(hl-1) || IsLogAddr(vb) {
			t.Errorf("thread %d: non-log address classified as log", thread)
		}
		if !IsVolatileAddr(vb) || IsVolatileAddr(hl-1) || IsVolatileAddr(ll-1) {
			t.Errorf("thread %d: volatile classification wrong", thread)
		}
		all = append(all, window{fmt.Sprintf("heap %d", thread), hb, hl},
			window{fmt.Sprintf("log %d", thread), lb, ll}, window{fmt.Sprintf("volatile %d", thread), vb, vl})
	}
	for i, a := range all {
		for _, b := range all[i+1:] {
			if a.base < b.limit && b.base < a.limit {
				t.Fatalf("%s [%#x,%#x) overlaps %s [%#x,%#x)", a.name, a.base, a.limit, b.name, b.base, b.limit)
			}
		}
	}
}

func TestAlignmentHelpers(t *testing.T) {
	if LineAddr(0x1234) != 0x1200 {
		t.Errorf("LineAddr(0x1234) = %#x", LineAddr(0x1234))
	}
	if LogBlockAddr(0x1234) != 0x1220 {
		t.Errorf("LogBlockAddr(0x1234) = %#x", LogBlockAddr(0x1234))
	}
	if LineAddr(0x1200) != 0x1200 || LogBlockAddr(0x1220) != 0x1220 {
		t.Error("aligned addresses changed")
	}
}

func TestKindStringsAndIsMem(t *testing.T) {
	mem := map[Kind]bool{
		Ld: true, St: true, Clwb: true, LogLoad: true, LogFlush: true,
		LockAcq: true, LockRel: true,
		Alu: false, Sfence: false, Pcommit: false, TxBegin: false, TxEnd: false, Nop: false, LogSave: false,
	}
	for k, want := range mem {
		if k.IsMem() != want {
			t.Errorf("%v.IsMem() = %v, want %v", k, k.IsMem(), want)
		}
		if k.String() == "" {
			t.Errorf("%v has empty name", int(k))
		}
	}
}

func TestTraceSummarize(t *testing.T) {
	tr := &Trace{}
	tr.Append(Op{Kind: TxBegin, Tx: 1})
	tr.Append(Op{Kind: Alu, Val: 5})
	tr.Append(Op{Kind: Ld, Addr: HeapBase, Size: 8})
	tr.Append(Op{Kind: St, Addr: HeapBase, Size: 8, Val: 42})
	tr.Append(Op{Kind: Clwb, Addr: HeapBase})
	tr.Append(Op{Kind: Sfence})
	tr.Append(Op{Kind: TxEnd, Tx: 1})
	s := tr.Summarize()
	if s.Loads != 1 || s.Stores != 1 || s.Alus != 5 || s.Clwbs != 1 || s.Sfences != 1 || s.TxBegins != 1 || s.TxEnds != 1 {
		t.Fatalf("summary wrong: %+v", s)
	}
	if tr.Len() != 7 {
		t.Fatalf("len %d", tr.Len())
	}
}
