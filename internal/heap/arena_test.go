package heap

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/isa"
)

const chunkBytes = chunkLines * isa.LineSize

func bytesPerOp(n int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// TestSmallHeapAllocatesInProportion pins the first chunk's sizing: a
// heap that writes three lines (a litmus program's), frozen into an init
// image, allocates well under one whole 32 KiB chunk. The first chunk
// doubles as writes reach past it, and a later chunk is allocated whole.
func TestSmallHeapAllocatesInProportion(t *testing.T) {
	if got := bytesPerOp(100, func() {
		h := New(0)
		for i := uint64(0); i < 3; i++ {
			h.Store(h.Alloc(isa.LineSize), i+1)
		}
		Freeze([]*Heap{h})
	}); got > chunkBytes/8 {
		t.Errorf("3-line heap and its init image allocate %d bytes/op, want well under one %d-byte chunk", got, chunkBytes)
	}
	h := New(0)
	base, _ := isa.HeapWindow(0)
	for _, c := range []struct {
		addr  uint64
		chunk int
		lines int
	}{
		{base + isa.LineSize, 0, minChunkLines},
		{base + 5*isa.LineSize, 0, 8},
		{base + 100*isa.LineSize, 0, 128},
		{base + chunkBytes, 1, chunkLines},
	} {
		h.Store(c.addr, 1)
		if got := len(h.arena.chunks[c.chunk].lines); got != c.lines {
			t.Errorf("after a write at %#x chunk %d holds %d lines, want %d", c.addr, c.chunk, got, c.lines)
		}
	}
}

// TestArenaWordsRoundTrip: words on either side of chunk boundaries and
// at the window's ends read back what was written, across the first
// chunk's growth; unwritten words read 0; the arena yields exactly the
// written lines in ascending order, and Freeze hands over those lines
// and no other.
func TestArenaWordsRoundTrip(t *testing.T) {
	h := New(1)
	base, limit := isa.HeapWindow(1)
	words := map[uint64]uint64{
		base + isa.LineSize:     1, // the first chunk at its smallest
		base + chunkBytes - 8:   2, // grows the first chunk whole
		base + chunkBytes:       3,
		base + 3*chunkBytes - 8: 4,
		base + 3*chunkBytes:     5,
		limit - 8:               6,
	}
	var want []uint64
	for a, v := range words {
		h.Store(a, v)
		want = append(want, isa.LineAddr(a))
	}
	slices.Sort(want)
	for a, v := range words {
		if got := h.Load(a); got != v {
			t.Errorf("word %#x reads %d, want %d", a, got, v)
		}
	}
	for _, a := range []uint64{
		base,                    // the unwritten logFlag line
		base + chunkBytes + 8,   // a written line's other word
		base + 2*chunkBytes,     // a chunk never written
		base + 4*chunkBytes - 8, // an unwritten line of a written chunk
		limit - 16,
	} {
		if got := h.Load(a); got != 0 {
			t.Errorf("unwritten word %#x reads %d", a, got)
		}
	}
	var got []uint64
	h.arena.lines(func(a uint64, b *[isa.LineSize]byte) { got = append(got, a) })
	if !slices.Equal(got, want) {
		t.Fatalf("arena lines %#x, want %#x", got, want)
	}
	img := Freeze([]*Heap{h})
	if lines := img.LinesIn(base, limit); !slices.Equal(lines, want) || img.Blocks() != len(want) {
		t.Fatalf("init image holds %d blocks, lines %#x; want %#x", img.Blocks(), lines, want)
	}
	for a, v := range words {
		if got := img.ReadUint64(a); got != v {
			t.Errorf("init image word %#x = %d, want %d", a, got, v)
		}
	}
}

// TestFreezeHandsOverToOneFork: after Freeze every heap loads and stores
// through one fork of the init image, so a store lands in the fork, the
// image keeps the value initialization wrote, and every heap sees every
// thread's stores. A heap is frozen once.
func TestFreezeHandsOverToOneFork(t *testing.T) {
	h0, h1 := New(0), New(1)
	a, b := h0.Alloc(isa.LineSize), h1.Alloc(isa.LineSize)
	h0.Store(a, 7)
	h1.Store(b, 9)
	img := Freeze([]*Heap{h0, h1})
	if h0.Image() != h1.Image() || h0.Image() == img {
		t.Fatal("frozen heaps do not share one fork of the init image")
	}
	h0.Store(a, 8)
	h1.Store(b, 10)
	if got, got2 := img.ReadUint64(a), img.ReadUint64(b); got != 7 || got2 != 9 {
		t.Fatalf("init image reads %d, %d after the recording's stores, want 7, 9", got, got2)
	}
	if got := h1.Load(a); got != 8 {
		t.Fatalf("thread 1 reads thread 0's word as %d, want 8", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a second Freeze did not panic")
		}
	}()
	Freeze([]*Heap{h0})
}

// TestArenaAccessOutsideWindowPanics: before Freeze a word access outside
// the thread's heap window, or an unaligned one, panics and names the
// address.
func TestArenaAccessOutsideWindowPanics(t *testing.T) {
	base, limit := isa.HeapWindow(1)
	other, _ := isa.HeapWindow(2)
	for name, c := range map[string]struct {
		addr  uint64
		store bool
	}{
		"load below":            {base - 8, false},
		"store at the limit":    {limit, true},
		"another thread's heap": {other + isa.LineSize, true},
		"unaligned load":        {base + isa.LineSize + 4, false},
		"unaligned store":       {base + isa.LineSize + 1, true},
	} {
		t.Run(name, func(t *testing.T) {
			h := New(1)
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, fmt.Sprintf("%#x", c.addr)) {
					t.Fatalf("access at %#x: panic %q does not name it", c.addr, msg)
				}
			}()
			if c.store {
				h.Store(c.addr, 1)
			} else {
				h.Load(c.addr)
			}
		})
	}
}
