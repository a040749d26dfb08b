// Package nvm models the main-memory device: a byte-addressable backing
// store that holds the simulated machine's actual data (so that crash
// images can be extracted and recovery verified), and a DDR3-1600-style
// timing model with 16 banks and a 2KB row buffer whose tRCD is raised to
// NVM latencies per Table 1 (50ns read / 150ns write, or 300ns write in
// the slow-NVM study).
package nvm

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"slices"

	"repro/internal/isa"
)

// Store is the functional contents of main memory, kept as sparse 64-byte
// blocks indexed by address page. It is shared between the timing layer
// (writes drained from the memory controller land here) and the recovery
// layer (crash images are copy-on-write forks of it).
//
// A store can be a copy-on-write fork of a base store (Fork): reads fall
// through to the base, the first write to a line copies it. The workload
// init image is the store the initialization wrote, handed over rather
// than copied: the recording of the timed operations writes a fork of it,
// and it is never written again. Simulations fork that (immutable,
// shared) image instead of deep-copying it, which removes the dominant
// allocation cost of building a System, and a crash image forks the
// simulation's store, so it costs only the lines the crash and recovery
// write.
//
// Each level indexes its own lines by page: a directory keyed by
// addr>>pageShift holds pages of pageLines line-block pointers, so a line
// lookup is one directory probe plus an array index, and a range scan
// walks pages, not lines. Word access (ReadUint64, WriteUint64) at an
// 8-byte-aligned address is one line lookup per level: such a word never
// straddles a line. No read path writes any store state, so concurrent
// reads through one store, or through forks of it, are safe.
type Store struct {
	dir  dir
	base *Store // copy-on-write parent; nil for a flat store
	// nlines counts the store's own lines.
	nlines int
	slab   [][isa.LineSize]byte
	pslab  []page
	// writes counts Write calls. A fork records its base's count when it
	// is taken (baseWrites); once any level below a fork has been written
	// since, the fork would mix old and new base state, so every access
	// through it panics.
	writes, baseWrites uint64
	// lo and hi bound the addresses of the store's own lines (meaningful
	// only when nlines is non-zero): a range scan skips a level whose
	// bounds miss the range.
	lo, hi uint64
}

// A page holds a level's own lines among pageLines consecutive lines
// (nil: the level does not hold that line). Eight-line pages keep a small
// fork small and still share one directory slot among the neighbouring
// lines a data structure touches together.
const (
	lineShift = 6             // log2(isa.LineSize)
	pageShift = lineShift + 3 // 8-line pages
	pageLines = 1 << (pageShift - lineShift)
)

type page [pageLines]*[isa.LineSize]byte

// dir is an open-addressed hash table from page number to page, probed
// linearly from a multiplicative hash of the page number. A slot with a
// nil page is empty; pages are never removed.
type dir struct {
	slots []dirSlot // power-of-two length, or nil before the first page
	used  int32     // pages held
	shift uint8     // 64 - log2(len(slots))
}

type dirSlot struct {
	pn uint64
	pg *page
}

const (
	hashMul     = 0x9E3779B97F4A7C15 // 2^64 / golden ratio
	minDirSlots = 4
)

// home returns the slot a probe for page pn starts at: the top
// log2(len(slots)) bits of its multiplicative hash.
func (d *dir) home(pn uint64) uint64 {
	return (pn * hashMul) >> d.shift
}

// get returns the page numbered pn, or nil.
func (d *dir) get(pn uint64) *page {
	if d.used == 0 {
		return nil
	}
	mask := uint64(len(d.slots) - 1)
	for i := d.home(pn); ; i = (i + 1) & mask {
		sl := &d.slots[i]
		if sl.pg == nil || sl.pn == pn {
			return sl.pg
		}
	}
}

// insert adds pg as page pn, which must not be present, growing the table
// to keep it at most three quarters full.
func (d *dir) insert(pn uint64, pg *page) {
	if 4*int(d.used+1) > 3*len(d.slots) {
		d.resize(max(2*len(d.slots), minDirSlots))
	}
	d.place(pn, pg)
	d.used++
}

func (d *dir) place(pn uint64, pg *page) {
	mask := uint64(len(d.slots) - 1)
	i := d.home(pn)
	for d.slots[i].pg != nil {
		i = (i + 1) & mask
	}
	d.slots[i] = dirSlot{pn, pg}
}

// resize rehashes the table into n slots (a power of two).
func (d *dir) resize(n int) {
	old := d.slots
	d.slots = make([]dirSlot, n)
	d.shift = uint8(bits.LeadingZeros64(uint64(n - 1)))
	for _, sl := range old {
		if sl.pg != nil {
			d.place(sl.pn, sl.pg)
		}
	}
}

// NewStore returns an empty store. Unwritten bytes read as zero.
func NewStore() *Store {
	return &Store{}
}

// Adopt returns a flat store whose own lines are the given blocks,
// installed without copying. each calls put once per line, in strictly
// ascending address order. Adopt calls each twice, first to count the
// pages, so the directory and the page slab are sized exactly and nothing
// is resized. The blocks belong to the store from then on: a write to one
// that bypasses the store would reach every fork of it unguarded.
func Adopt(each func(put func(addr uint64, b *[isa.LineSize]byte))) *Store {
	nPages, last := 0, uint64(0)
	each(func(addr uint64, _ *[isa.LineSize]byte) {
		if pn := addr >> pageShift; nPages == 0 || pn != last {
			nPages, last = nPages+1, pn
		}
	})
	s := &Store{pslab: make([]page, nPages)}
	if nPages > 0 {
		s.dir.resize(dirSlotsFor(nPages))
	}
	each(func(addr uint64, b *[isa.LineSize]byte) {
		if s.nlines > 0 && isa.LineAddr(addr) <= s.hi {
			panic(fmt.Sprintf("nvm: Adopt given line %#x after line %#x", addr, s.hi))
		}
		s.put(addr, b)
	})
	return s
}

// Fork returns a copy-on-write view of s. The fork sees every line of s
// and owns every line it writes. Writing s (or any level below it) ends
// the fork's life: any later access through the fork panics. A fork that
// must outlive such a write is flattened with Snapshot first. Concurrent
// read-only use of the base is safe.
func (s *Store) Fork() *Store {
	return &Store{base: s, baseWrites: s.writes}
}

// checkForks panics when a level below s was written after the fork
// above it was taken.
func (s *Store) checkForks() {
	for p := s; p.base != nil; p = p.base {
		if p.base.writes != p.baseWrites {
			panic("nvm: access through a fork whose base was written after the fork was taken")
		}
	}
}

// own returns the level's own block for the line holding addr, or nil.
func (s *Store) own(addr uint64) *[isa.LineSize]byte {
	if pg := s.dir.get(addr >> pageShift); pg != nil {
		return pg[(addr>>lineShift)&(pageLines-1)]
	}
	return nil
}

// put installs b as the store's own block for the line holding addr.
func (s *Store) put(addr uint64, b *[isa.LineSize]byte) {
	line := isa.LineAddr(addr)
	if s.nlines == 0 || line < s.lo {
		s.lo = line
	}
	if s.nlines == 0 || line > s.hi {
		s.hi = line
	}
	pn := addr >> pageShift
	pg := s.dir.get(pn)
	if pg == nil {
		pg = s.newPage()
		s.dir.insert(pn, pg)
	}
	pg[(addr>>lineShift)&(pageLines-1)] = b
	s.nlines++
}

// Blocks and pages are carved from arena slabs: one heap allocation
// covers many of them. A slab is sized to the store's current count of
// lines or pages, clamped to [minSlabBlocks, slabBlocks] lines or
// [minSlabPages, slabPages] pages, so slabs grow geometrically with the
// store, the steady state of a long run allocates rarely, and a crash
// image or fork that writes a handful of lines allocates a few hundred
// bytes.
const (
	minSlabBlocks = 4
	slabBlocks    = 512
	minSlabPages  = 2
	slabPages     = 256
)

func (s *Store) newBlock() *[isa.LineSize]byte {
	if len(s.slab) == 0 {
		s.slab = make([][isa.LineSize]byte, min(max(s.nlines, minSlabBlocks), slabBlocks))
	}
	b := &s.slab[0]
	s.slab = s.slab[1:]
	return b
}

func (s *Store) newPage() *page {
	if len(s.pslab) == 0 {
		s.pslab = make([]page, min(max(int(s.dir.used), minSlabPages), slabPages))
	}
	pg := &s.pslab[0]
	s.pslab = s.pslab[1:]
	return pg
}

func (s *Store) block(addr uint64, create bool) *[isa.LineSize]byte {
	s.checkForks()
	if b := s.own(addr); b != nil {
		return b
	}
	var inherited *[isa.LineSize]byte
	for p := s.base; p != nil; p = p.base {
		if b := p.own(addr); b != nil {
			inherited = b
			break
		}
	}
	if !create {
		return inherited
	}
	nb := s.newBlock()
	if inherited != nil {
		*nb = *inherited
	}
	s.put(addr, nb)
	return nb
}

// LineView returns a copy of the 64-byte line holding addr (all zero when
// the line was never written): one lookup serves every word of the line.
func (s *Store) LineView(addr uint64) (line [isa.LineSize]byte) {
	if b := s.block(addr, false); b != nil {
		line = *b
	}
	return line
}

// Read copies size bytes at addr into a fresh slice.
func (s *Store) Read(addr uint64, size int) []byte {
	out := make([]byte, size)
	s.ReadInto(addr, out)
	return out
}

// ReadInto fills buf with the bytes at addr.
func (s *Store) ReadInto(addr uint64, buf []byte) {
	for i := 0; i < len(buf); {
		b := s.block(addr+uint64(i), false)
		off := int((addr + uint64(i)) & (isa.LineSize - 1))
		n := isa.LineSize - off
		if n > len(buf)-i {
			n = len(buf) - i
		}
		if b == nil {
			for j := 0; j < n; j++ {
				buf[i+j] = 0
			}
		} else {
			copy(buf[i:i+n], b[off:off+n])
		}
		i += n
	}
}

// Write stores data at addr.
func (s *Store) Write(addr uint64, data []byte) {
	s.writes++
	for i := 0; i < len(data); {
		b := s.block(addr+uint64(i), true)
		off := int((addr + uint64(i)) & (isa.LineSize - 1))
		n := isa.LineSize - off
		if n > len(data)-i {
			n = len(data) - i
		}
		copy(b[off:off+n], data[i:i+n])
		i += n
	}
}

// ReadUint64 reads an 8-byte little-endian value. An 8-byte-aligned word
// never straddles a line, so it costs one block lookup; an unaligned one
// takes the byte path.
func (s *Store) ReadUint64(addr uint64) uint64 {
	if addr&7 != 0 {
		var buf [8]byte
		s.ReadInto(addr, buf[:])
		return binary.LittleEndian.Uint64(buf[:])
	}
	b := s.block(addr, false)
	if b == nil {
		return 0
	}
	off := addr & (isa.LineSize - 1)
	return binary.LittleEndian.Uint64(b[off : off+8])
}

// WriteUint64 writes an 8-byte little-endian value, counting as one Write.
func (s *Store) WriteUint64(addr, v uint64) {
	if addr&7 != 0 {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		s.Write(addr, buf[:])
		return
	}
	s.writes++
	off := addr & (isa.LineSize - 1)
	binary.LittleEndian.PutUint64(s.block(addr, true)[off:off+8], v)
}

// Snapshot returns a deep, flat copy of the store. Forked stores are
// flattened: the copy holds the merged contents and has no base, so later
// writes to the original's base levels do not end its life. The copy
// allocates exactly its line and page counts.
func (s *Store) Snapshot() *Store {
	s.checkForks()
	// shadow returns which lines of page pn the levels above p hold, and
	// whether any of them indexes the page at all.
	shadow := func(p *Store, pn uint64) (held uint, indexed bool) {
		for q := s; q != p; q = q.base {
			if pg := q.dir.get(pn); pg != nil {
				held |= pg.mask()
				indexed = true
			}
		}
		return held, indexed
	}
	nLines, nPages := 0, 0
	for p := s; p != nil; p = p.base {
		for _, sl := range p.dir.slots {
			if sl.pg != nil {
				held, indexed := shadow(p, sl.pn)
				nLines += bits.OnesCount(sl.pg.mask() &^ held)
				if !indexed {
					nPages++
				}
			}
		}
	}
	c := &Store{slab: make([][isa.LineSize]byte, nLines), pslab: make([]page, nPages)}
	if nPages > 0 {
		c.dir.resize(dirSlotsFor(nPages))
	}
	for p := s; p != nil; p = p.base {
		for _, sl := range p.dir.slots {
			if sl.pg == nil {
				continue
			}
			held, _ := shadow(p, sl.pn)
			for i, b := range sl.pg {
				if b != nil && held&(1<<i) == 0 {
					nb := c.newBlock()
					*nb = *b
					c.put(sl.pn<<pageShift|uint64(i)<<lineShift, nb)
				}
			}
		}
	}
	return c
}

// mask returns the page's held lines as a bit set (bit i: line i).
func (pg *page) mask() uint {
	var m uint
	for i, b := range pg {
		if b != nil {
			m |= 1 << i
		}
	}
	return m
}

// dirSlotsFor returns the directory size that holds n pages without
// growing.
func dirSlotsFor(n int) int {
	slots := minDirSlots
	for 4*n > 3*slots {
		slots *= 2
	}
	return slots
}

// Writes returns how many Write calls the store has taken (its own, not
// its base's): a counter of its mutations that costs nothing to read.
func (s *Store) Writes() uint64 { return s.writes }

// Blocks returns the number of materialized 64-byte blocks (including
// lines inherited from the base of a fork).
func (s *Store) Blocks() int {
	if s.base == nil {
		return s.nlines
	}
	return len(s.lines(0, ^uint64(0)))
}

// LinesIn returns the sorted addresses of materialized 64-byte blocks in
// [base, limit). Recovery uses it to scan log areas without touching
// never-written space.
func (s *Store) LinesIn(base, limit uint64) []uint64 {
	if limit <= base {
		return nil
	}
	return s.lines(base, limit-1)
}

// pageMask is one page's held lines found by a range scan.
type pageMask struct {
	pn   uint64
	mask uint
}

// lines returns the sorted addresses of materialized blocks in [lo, hi].
// It skips the levels of the fork chain whose bounds miss the range and
// walks the directory of each other level, expanding only its pages in
// range.
func (s *Store) lines(lo, hi uint64) []uint64 {
	s.checkForks()
	first, last := lo>>pageShift, hi>>pageShift
	var found []pageMask
	for p := s; p != nil; p = p.base {
		if p.nlines == 0 || p.hi < lo || p.lo > hi {
			continue
		}
		for _, sl := range p.dir.slots {
			if sl.pg != nil && sl.pn >= first && sl.pn <= last {
				found = append(found, pageMask{sl.pn, sl.pg.mask()})
			}
		}
	}
	slices.SortFunc(found, func(a, b pageMask) int { return cmp.Compare(a.pn, b.pn) })
	// A page two levels index is listed by both: merge their lines, and
	// drop the lines of the end pages that fall outside the range.
	n, count := 0, 0
	for i := 0; i < len(found); {
		f := found[i]
		for i++; i < len(found) && found[i].pn == f.pn; i++ {
			f.mask |= found[i].mask
		}
		for m := f.mask; m != 0; m &= m - 1 {
			if a := f.pn<<pageShift | uint64(bits.TrailingZeros(m))<<lineShift; a < lo || a > hi {
				f.mask &^= m & -m
			}
		}
		found[n] = f
		n++
		count += bits.OnesCount(f.mask)
	}
	if count == 0 {
		return nil
	}
	out := make([]uint64, 0, count)
	for _, f := range found[:n] {
		for m := f.mask; m != 0; m &= m - 1 {
			out = append(out, f.pn<<pageShift|uint64(bits.TrailingZeros(m))<<lineShift)
		}
	}
	return out
}

func (s *Store) String() string {
	return fmt.Sprintf("nvm.Store{%d blocks}", s.Blocks())
}

// storeMagic heads a serialized store: "NVMIMG" + a format version.
var storeMagic = [8]byte{'N', 'V', 'M', 'I', 'M', 'G', 0, 1}

// Serialize writes the store to w in a deterministic flat format: the
// magic, a block count, then each materialized line in ascending address
// order as an 8-byte little-endian address followed by its 64 data bytes.
// Crash-campaign reproducer artifacts are written this way.
func (s *Store) Serialize(w io.Writer) error {
	if _, err := w.Write(storeMagic[:]); err != nil {
		return err
	}
	lines := s.lines(0, ^uint64(0))
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(lines)))
	if _, err := w.Write(buf[:]); err != nil {
		return err
	}
	for _, a := range lines {
		binary.LittleEndian.PutUint64(buf[:], a)
		if _, err := w.Write(buf[:]); err != nil {
			return err
		}
		if _, err := w.Write(s.block(a, false)[:]); err != nil {
			return err
		}
	}
	return nil
}
