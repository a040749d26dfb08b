// Package heap provides the persistent heap the workloads run on: a
// per-thread bump/free-list allocator over the simulated NVM address
// space, word-granularity loads and stores that both mutate the functional
// memory image and record the access stream, and transaction recording
// (write sets with pre/post images, plus the conservative undo-log hints
// software logging needs).
//
// A heap initializes in a private arena: the thread's own lines, indexed
// directly by address, so the threads of a workload initialize at once
// and no word goes through the NVM store's page directory. Freeze then
// ends initialization for a workload's heaps together: it adopts every
// line their arenas wrote, uncopied, as the init image (an nvm.Store),
// and points every heap at one fork of it, where the timed operations
// are recorded.
//
// The recorded transactions are the single source the per-scheme code
// generators (package logging) expand into micro-op traces, and the oracle
// the recovery verifier replays.
package heap

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/nvm"
)

// AccessKind classifies a recorded access.
type AccessKind uint8

const (
	Load AccessKind = iota
	Store
)

// Access is one recorded word access in program order.
type Access struct {
	Kind AccessKind
	Addr uint64
	Val  uint64 // store value (stores only)
}

// Range is a byte range of persistent memory.
type Range struct {
	Addr uint64
	Size int
}

// Txn is one recorded durable transaction.
type Txn struct {
	ID   uint32
	Lock uint64 // lock word guarding the structure (volatile region)
	Ops  []Access
	// Hints is the conservative undo-log set declared by the data
	// structure: everything that could be modified, known before the
	// modifications happen (§5.2: "our manual undo-logging assumes the
	// worst and logs all nodes that could be modified").
	Hints []Range
	// Allocs lists memory allocated during the transaction. Writes into
	// it need no undo coverage: allocation is failure-safe (§5.2) and the
	// memory is unreachable until the (logged) structural store links it.
	Allocs []Range
	// Pre/Post are the transaction's write set at word granularity.
	Pre  map[uint64]uint64
	Post map[uint64]uint64
}

// Heap is one thread's persistent heap.
type Heap struct {
	thread      int
	base, limit uint64
	next        uint64
	free        map[int][]uint64 // size class -> free addresses
	// arena holds the heap's lines until Freeze, img from then on: the
	// fork of the init image every heap of the workload shares.
	arena *arena
	img   *nvm.Store

	recording bool
	cur       *Txn
	Txns      []*Txn
	nextTxID  uint32
}

// New creates a heap for thread, initializing in its own arena. The
// first line of the thread's window is reserved for the software-logging
// logFlag (see logfmt.LogFlagAddr). Loads and stores must be 8-byte
// aligned and inside the window until Freeze; one that is not panics.
func New(thread int) *Heap {
	base, limit := isa.HeapWindow(thread)
	return &Heap{
		thread: thread,
		base:   base,
		limit:  limit,
		next:   base + isa.LineSize, // skip the logFlag line
		free:   make(map[int][]uint64),
		arena:  &arena{thread: thread, base: base, limit: limit},
	}
}

// Freeze ends the initialization of a workload's heaps, given in thread
// order. It adopts every line their arenas wrote into a new store, the
// init image, without copying them (nvm.Adopt), drops the arenas, and
// points every heap at one fork of the image, so the recording of the
// timed operations writes the fork and every heap sees every thread's
// writes. The image's blocks are the arenas' memory, which no heap can
// reach afterwards; the image itself must never be written (users fork
// it).
func Freeze(heaps []*Heap) *nvm.Store {
	for _, h := range heaps {
		if h.arena == nil {
			panic(fmt.Sprintf("heap: thread %d frozen twice", h.thread))
		}
	}
	img := nvm.Adopt(func(put func(uint64, *[isa.LineSize]byte)) {
		for _, h := range heaps {
			h.arena.lines(put)
		}
	})
	rec := img.Fork()
	for _, h := range heaps {
		h.arena, h.img = nil, rec
	}
	return img
}

// Thread returns the owning thread index.
func (h *Heap) Thread() int { return h.thread }

// Image returns the store the heap loads and stores through after
// Freeze, the fork every heap of the workload shares; nil before.
func (h *Heap) Image() *nvm.Store { return h.img }

func (h *Heap) read(addr uint64) uint64 {
	if h.arena != nil {
		return h.arena.read(addr)
	}
	return h.img.ReadUint64(addr)
}

func (h *Heap) write(addr, val uint64) {
	if h.arena != nil {
		h.arena.write(addr, val)
		return
	}
	h.img.WriteUint64(addr, val)
}

// Alloc returns a 64-byte-aligned block of at least size bytes. Node
// allocations are line-aligned per Table 2 ("we size each node to be 64
// bytes and align them to cache blocks"). Allocation is assumed
// failure-safe (§5.2) and is not recorded; recycled memory is NOT zeroed
// (as in C allocators), so data structures must initialize every field
// they later read — this keeps the functional image and the timing
// simulation's replayed stores identical.
func (h *Heap) Alloc(size int) uint64 {
	size = (size + isa.LineSize - 1) &^ (isa.LineSize - 1)
	var addr uint64
	if fl := h.free[size]; len(fl) > 0 {
		addr = fl[len(fl)-1]
		h.free[size] = fl[:len(fl)-1]
	} else {
		addr = h.next
		h.next += uint64(size)
		if h.next > h.limit {
			panic(fmt.Sprintf("heap: thread %d exhausted its %d MiB window", h.thread, (h.limit-h.base)>>20))
		}
	}
	if h.recording && h.cur != nil {
		h.cur.Allocs = append(h.cur.Allocs, Range{Addr: addr, Size: size})
	}
	return addr
}

// Free returns a block of the given size to the allocator (assumed
// failure-safe, not recorded).
func (h *Heap) Free(addr uint64, size int) {
	size = (size + isa.LineSize - 1) &^ (isa.LineSize - 1)
	h.free[size] = append(h.free[size], addr)
}

// Load reads the 8-byte word at addr, recording it when a transaction is
// being recorded.
func (h *Heap) Load(addr uint64) uint64 {
	v := h.read(addr)
	if h.recording && h.cur != nil {
		h.cur.Ops = append(h.cur.Ops, Access{Kind: Load, Addr: addr, Val: v})
	}
	return v
}

// Store writes the 8-byte word at addr.
func (h *Heap) Store(addr uint64, val uint64) {
	if h.recording && h.cur != nil {
		if _, ok := h.cur.Pre[addr]; !ok {
			h.cur.Pre[addr] = h.read(addr)
		}
		h.cur.Ops = append(h.cur.Ops, Access{Kind: Store, Addr: addr, Val: val})
	}
	h.write(addr, val)
}

// LogHint declares that [addr, addr+size) may be modified by the current
// transaction. Software logging will create undo entries for the whole
// range before the first data update.
func (h *Heap) LogHint(addr uint64, size int) {
	if h.recording && h.cur != nil {
		h.cur.Hints = append(h.cur.Hints, Range{Addr: addr, Size: size})
	}
}

// SetRecording turns transaction recording on or off (off during the
// fast-forwarded initialization operations).
func (h *Heap) SetRecording(on bool) { h.recording = on }

// Begin starts recording a transaction guarded by the given lock word.
func (h *Heap) Begin(lock uint64) *Txn {
	h.nextTxID++
	h.cur = &Txn{
		ID:   h.nextTxID,
		Lock: lock,
		Pre:  make(map[uint64]uint64),
		Post: make(map[uint64]uint64),
	}
	return h.cur
}

// End finishes the current transaction, filling its post-image.
func (h *Heap) End() *Txn {
	t := h.cur
	if t == nil {
		return nil
	}
	for addr := range t.Pre {
		t.Post[addr] = h.read(addr)
	}
	if h.recording {
		h.Txns = append(h.Txns, t)
	}
	h.cur = nil
	return t
}
