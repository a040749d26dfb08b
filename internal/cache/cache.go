// Package cache models the three-level write-back cache hierarchy of
// Table 1: private 32KB L1D and 256KB L2 per core, and a shared 8MB L3,
// all with 64-byte lines and LRU replacement. Lines carry their data so
// that the functional contents of the machine flow through the hierarchy
// exactly as the timing model persists them (clwb, write-backs, log
// loads).
//
// Cross-core coherence traffic is structurally absent: the workloads
// partition data structures across threads (see DESIGN.md §1), so no line
// is ever shared between cores. The shared L3 still models capacity and
// bandwidth interaction between cores.
package cache

import (
	"math/bits"
	"sync"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/memctrl"
	"repro/internal/stats"
)

type way struct {
	tag   uint64 // line address
	valid bool
	dirty bool
	lru   uint64
	data  [isa.LineSize]byte
}

// Level is one set-associative cache. All sets share one flat backing
// array indexed by set*Ways, so a level is two allocations (ways and the
// used-set bitmap) however many sets it has.
type Level struct {
	cfg     config.Cache
	ways    []way
	setMask uint64
	// used has one bit per set victim has handed a way out of. A way
	// becomes valid only through victim, so every set holding state is
	// marked and Release clears exactly those.
	used []uint64
	free bool // on the free list; guards against a double Release
}

// levelPool recycles released levels per geometry (size and ways; the
// latency is re-applied on reuse). A plain free list never holds more
// levels than were alive at once, and unlike sync.Pool it is not drained
// by every GC, so campaigns that build thousands of short-lived Systems
// stop allocating and zeroing megabytes of cache arrays per run.
var levelPool = struct {
	sync.Mutex
	free map[config.Cache][]*Level
}{free: make(map[config.Cache][]*Level)}

func geometry(cfg config.Cache) config.Cache {
	return config.Cache{SizeBytes: cfg.SizeBytes, Ways: cfg.Ways}
}

// NewLevel returns an empty cache level for the configuration, reusing a
// released level of the same geometry when one is free.
func NewLevel(cfg config.Cache) *Level {
	key := geometry(cfg)
	levelPool.Lock()
	free := levelPool.free[key]
	if n := len(free); n > 0 {
		l := free[n-1]
		free[n-1] = nil
		levelPool.free[key] = free[:n-1]
		levelPool.Unlock()
		l.cfg, l.free = cfg, false
		return l
	}
	levelPool.Unlock()
	return newLevel(cfg)
}

// newLevel allocates a fresh, zeroed level.
func newLevel(cfg config.Cache) *Level {
	n := cfg.Sets()
	return &Level{
		cfg:     cfg,
		ways:    make([]way, n*cfg.Ways),
		setMask: uint64(n - 1),
		used:    make([]uint64, (n+63)/64),
	}
}

// Release resets the level to its freshly built state and returns it to
// the free list for the next NewLevel of its geometry. Only the sets
// victim marked are cleared. The caller must drop every reference to the
// level; releasing it twice is a no-op.
func (l *Level) Release() {
	if l.free {
		return
	}
	for i, word := range l.used {
		for ; word != 0; word &= word - 1 {
			clear(l.setAt(i*64 + bits.TrailingZeros64(word)))
		}
		l.used[i] = 0
	}
	l.free = true
	key := geometry(l.cfg)
	levelPool.Lock()
	levelPool.free[key] = append(levelPool.free[key], l)
	levelPool.Unlock()
}

func (l *Level) setIndex(line uint64) int {
	return int((line / isa.LineSize) & l.setMask)
}

func (l *Level) setAt(si int) []way {
	i := si * l.cfg.Ways
	return l.ways[i : i+l.cfg.Ways : i+l.cfg.Ways]
}

// lookup returns the way holding line, or nil.
func (l *Level) lookup(line uint64) *way {
	s := l.setAt(l.setIndex(line))
	for i := range s {
		if s[i].valid && s[i].tag == line {
			return &s[i]
		}
	}
	return nil
}

// victim returns the way to allocate for line: an invalid way if any,
// otherwise the LRU way. The caller handles the victim's dirty data. It
// marks the set used, since the caller is about to make the way valid.
func (l *Level) victim(line uint64) *way {
	si := l.setIndex(line)
	l.used[si/64] |= 1 << (si % 64)
	s := l.setAt(si)
	var v *way
	for i := range s {
		if !s[i].valid {
			return &s[i]
		}
		if v == nil || s[i].lru < v.lru {
			v = &s[i]
		}
	}
	return v
}

// Latency returns the level's access latency.
func (l *Level) Latency() int { return l.cfg.Latency }

// Hierarchy is one core's view of the cache system: its private L1D and
// L2, the shared L3 and the memory controller behind it.
type Hierarchy struct {
	l1, l2 *Level
	l3     *Level // shared
	mc     *memctrl.Controller
	l3ToMC int
	st     *stats.Core
}

// NewHierarchy wires a core's private levels to the shared L3 and MC. Its
// hits and misses count into st, which must not be nil.
func NewHierarchy(cfg config.Config, l3 *Level, mc *memctrl.Controller, st *stats.Core) *Hierarchy {
	return &Hierarchy{
		l1: NewLevel(cfg.L1D), l2: NewLevel(cfg.L2), l3: l3,
		mc: mc, l3ToMC: cfg.Mem.L3ToMC, st: st,
	}
}

// Release returns the core's private L1D and L2 to the free list (the
// shared L3 belongs to whoever built it). The hierarchy must not be used
// afterwards; a second call is a no-op.
func (h *Hierarchy) Release() {
	if h.l1 == nil {
		return
	}
	h.l1.Release()
	h.l2.Release()
	h.l1, h.l2 = nil, nil
}

// fill brings line into every level down to L1 and returns the cycle the
// data arrives at the core, along with the L1 way now holding it. ok is
// false when the memory controller cannot accept the read this cycle.
func (h *Hierarchy) fill(now uint64, line uint64) (*way, uint64, bool) {
	if w := h.l1.lookup(line); w != nil {
		w.lru = now
		h.st.LoadHitsL1++
		return w, now + uint64(h.l1.Latency()), true
	}
	if w := h.l2.lookup(line); w != nil {
		w.lru = now
		nw := h.allocate(h.l1, now, line, w.data)
		h.st.LoadHitsL2++
		return nw, now + uint64(h.l2.Latency()), true
	}
	if w := h.l3.lookup(line); w != nil {
		w.lru = now
		h.allocate(h.l2, now, line, w.data)
		nw := h.allocate(h.l1, now, line, w.data)
		h.st.LoadHitsL3++
		return nw, now + uint64(h.l3.Latency()), true
	}
	// Miss all the way to memory.
	arrive := now + uint64(h.l3.Latency()) + uint64(h.l3ToMC)
	done, data, ok := h.mc.ReadLine(arrive, line)
	if !ok {
		return nil, 0, false
	}
	h.st.LoadMisses++
	h.allocate(h.l3, now, line, data)
	h.allocate(h.l2, now, line, data)
	nw := h.allocate(h.l1, now, line, data)
	return nw, done + uint64(h.l3ToMC), true
}

// allocate installs line/data in level l (clean), evicting as needed, and
// returns the way.
func (h *Hierarchy) allocate(l *Level, now uint64, line uint64, data [isa.LineSize]byte) *way {
	if w := l.lookup(line); w != nil {
		w.lru = now
		w.data = data
		return w
	}
	v := l.victim(line)
	if v.valid && v.dirty {
		h.evict(l, now, v)
	}
	v.tag = line
	v.valid = true
	v.dirty = false
	v.lru = now
	v.data = data
	return v
}

// evict pushes a dirty victim one level down (L1→L2, L2→L3, L3→memory).
func (h *Hierarchy) evict(l *Level, now uint64, v *way) {
	switch l {
	case h.l1:
		if w := h.l2.lookup(v.tag); w != nil {
			w.data = v.data
			w.dirty = true
			return
		}
		nv := h.l2.victim(v.tag)
		if nv.valid && nv.dirty {
			h.evict(h.l2, now, nv)
		}
		*nv = way{tag: v.tag, valid: true, dirty: true, lru: now, data: v.data}
	case h.l2:
		if w := h.l3.lookup(v.tag); w != nil {
			w.data = v.data
			w.dirty = true
			return
		}
		nv := h.l3.victim(v.tag)
		if nv.valid && nv.dirty {
			h.evict(h.l3, now, nv)
		}
		*nv = way{tag: v.tag, valid: true, dirty: true, lru: now, data: v.data}
	default: // L3
		h.mc.WriteLineEvict(now, v.tag, v.data, stats.WriteData)
	}
}

// Load reads size bytes at addr through the hierarchy, returning the data
// and its arrival cycle. ok is false when the access must be retried
// (memory-controller backpressure).
func (h *Hierarchy) Load(now uint64, addr uint64, size int, buf []byte) (done uint64, ok bool) {
	line := isa.LineAddr(addr)
	w, done, ok := h.fill(now, line)
	if !ok {
		return 0, false
	}
	if buf != nil {
		off := int(addr - line)
		n := size
		if off+n > isa.LineSize {
			n = isa.LineSize - off
		}
		copy(buf[:n], w.data[off:off+n])
		// Accesses spanning a line boundary touch the next line too.
		if n < size {
			w2, done2, ok2 := h.fill(now, line+isa.LineSize)
			if !ok2 {
				return 0, false
			}
			copy(buf[n:size], w2.data[:size-n])
			if done2 > done {
				done = done2
			}
		}
	}
	return done, true
}

// Store writes data at addr (write-allocate, write-back), returning the
// cycle the write completes in the L1. ok is false when a required fill
// cannot be accepted this cycle.
func (h *Hierarchy) Store(now uint64, addr uint64, data []byte) (done uint64, ok bool) {
	line := isa.LineAddr(addr)
	w, done, ok := h.fill(now, line)
	if !ok {
		return 0, false
	}
	off := int(addr - line)
	n := len(data)
	if off+n > isa.LineSize {
		n = isa.LineSize - off
	}
	copy(w.data[off:off+n], data[:n])
	w.dirty = true
	if n < len(data) {
		w2, done2, ok2 := h.fill(now, line+isa.LineSize)
		if !ok2 {
			return 0, false
		}
		copy(w2.data[:len(data)-n], data[n:])
		w2.dirty = true
		if done2 > done {
			done = done2
		}
	}
	return done, true
}

// Clwb writes the line containing addr back to the memory controller if it
// is dirty anywhere in this core's path, leaving every copy valid and
// clean. The first dirty copy on the L1→L3 path holds the newest data: a
// clean copy above it was filled from it. It returns the cycle at which
// the write is accepted at the WPQ (the completion point under ADR) and
// whether a write actually happened. ok is false when the WPQ is full and
// the clwb must be retried.
func (h *Hierarchy) Clwb(now uint64, addr uint64) (done uint64, wrote bool, ok bool) {
	line := isa.LineAddr(addr)
	var w *way
	lat := uint64(0)
	for _, l := range [...]*Level{h.l1, h.l2, h.l3} {
		if lw := l.lookup(line); lw != nil && lw.dirty {
			w, lat = lw, uint64(l.Latency())
			break
		}
	}
	if w == nil {
		return now + uint64(h.l1.Latency()), false, true
	}
	arrive := now + lat + uint64(h.l3.Latency()) + uint64(h.l3ToMC)
	if !h.mc.WriteLine(arrive, line, w.data, stats.WriteData) {
		return 0, false, false
	}
	// Every copy now matches the flushed data.
	data := w.data
	for _, l := range [...]*Level{h.l1, h.l2, h.l3} {
		if lw := l.lookup(line); lw != nil {
			lw.data = data
			lw.dirty = false
		}
	}
	return arrive + uint64(h.l3ToMC), true, true
}

// Peek reads bytes functionally (no timing, no state change), preferring
// the highest level holding the line. It is used to capture pre-images for
// hardware log creation.
func (h *Hierarchy) Peek(addr uint64, size int, buf []byte) {
	for i := 0; i < size; {
		line := isa.LineAddr(addr + uint64(i))
		off := int(addr + uint64(i) - line)
		n := isa.LineSize - off
		if n > size-i {
			n = size - i
		}
		var src *[isa.LineSize]byte
		if w := h.l1.lookup(line); w != nil {
			src = &w.data
		} else if w := h.l2.lookup(line); w != nil {
			src = &w.data
		} else if w := h.l3.lookup(line); w != nil {
			src = &w.data
		}
		if src != nil {
			copy(buf[i:i+n], src[off:off+n])
		} else {
			data := h.mc.PeekLine(line)
			copy(buf[i:i+n], data[off:off+n])
		}
		i += n
	}
}

// DirtyLines returns the dirty state of line addr anywhere in the private
// path or L3 (used by tx-end hardware flushing to decide what to write).
func (h *Hierarchy) IsDirty(line uint64) bool {
	line = isa.LineAddr(line)
	if w := h.l1.lookup(line); w != nil && w.dirty {
		return true
	}
	if w := h.l2.lookup(line); w != nil && w.dirty {
		return true
	}
	if w := h.l3.lookup(line); w != nil && w.dirty {
		return true
	}
	return false
}
