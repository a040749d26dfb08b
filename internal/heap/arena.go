package heap

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/isa"
)

// An arena holds one heap's lines while the heap initializes. Its chunk
// table is indexed directly by address, so a word access is two slice
// indexes: no hash probe, no page lookup, no fork guard. It belongs to
// one thread, so nothing synchronizes it.
type arena struct {
	thread      int
	base, limit uint64
	// chunks[i] covers [base + i<<chunkShift, base + (i+1)<<chunkShift).
	chunks []chunk
}

// A chunk holds up to chunkLines lines (32 KiB, the NVM store's largest
// slab) and the bitmap of the lines written, which alone are handed to
// the init image. The bitmap stays outside the line block: 32 KiB plus
// 64 bytes would be rounded up to a 40 KiB allocation.
//
// The first chunk starts at minChunkLines lines and doubles as writes
// reach past it, so a heap of a few lines (a litmus program's) allocates
// a few hundred bytes. Every later chunk is allocated whole: the bump
// allocator reaches it only after handing out the first chunk's lines.
type chunk struct {
	lines   [][isa.LineSize]byte
	written [chunkLines / 64]uint64
}

const (
	lineShift     = 6 // log2(isa.LineSize)
	chunkShift    = 15
	chunkLines    = 1 << (chunkShift - lineShift)
	minChunkLines = 4
)

// locate splits an aligned word address of the arena's window into its
// chunk, line and byte offset.
func (a *arena) locate(addr uint64) (ci, li int, off uint64) {
	if addr&7 != 0 || addr < a.base || addr >= a.limit {
		panic(fmt.Sprintf("heap: thread %d word access at %#x: unaligned, or outside its window [%#x, %#x)",
			a.thread, addr, a.base, a.limit))
	}
	rel := addr - a.base
	return int(rel >> chunkShift), int(rel>>lineShift) & (chunkLines - 1), rel & (isa.LineSize - 1)
}

// read returns the word at addr; an unwritten word reads 0.
func (a *arena) read(addr uint64) uint64 {
	ci, li, off := a.locate(addr)
	if ci >= len(a.chunks) || li >= len(a.chunks[ci].lines) {
		return 0
	}
	return binary.LittleEndian.Uint64(a.chunks[ci].lines[li][off:])
}

// write stores the word at addr and marks its line written.
func (a *arena) write(addr, v uint64) {
	ci, li, off := a.locate(addr)
	if ci >= len(a.chunks) {
		a.chunks = append(a.chunks, make([]chunk, ci+1-len(a.chunks))...)
	}
	c := &a.chunks[ci]
	if li >= len(c.lines) {
		n := chunkLines
		if ci == 0 {
			n = max(minChunkLines, 2*len(c.lines))
			for n <= li {
				n *= 2
			}
		}
		lines := make([][isa.LineSize]byte, n)
		copy(lines, c.lines)
		c.lines = lines
	}
	c.written[li>>6] |= 1 << (li & 63)
	binary.LittleEndian.PutUint64(c.lines[li][off:], v)
}

// lines calls put for every line the arena wrote, in ascending address
// order.
func (a *arena) lines(put func(addr uint64, b *[isa.LineSize]byte)) {
	for ci := range a.chunks {
		c := &a.chunks[ci]
		for w, set := range c.written {
			for ; set != 0; set &= set - 1 {
				li := w*64 + bits.TrailingZeros64(set)
				put(a.base+uint64(ci)<<chunkShift+uint64(li)<<lineShift, &c.lines[li])
			}
		}
	}
}
