// Package nvm models the main-memory device: a byte-addressable backing
// store that holds the simulated machine's actual data (so that crash
// images can be extracted and recovery verified), and a DDR3-1600-style
// timing model with 16 banks and a 2KB row buffer whose tRCD is raised to
// NVM latencies per Table 1 (50ns read / 150ns write, or 300ns write in
// the slow-NVM study).
package nvm

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/isa"
)

// Store is the functional contents of main memory, kept as sparse 64-byte
// blocks. It is shared between the timing layer (writes drained from the
// memory controller land here) and the recovery layer (crash images are
// copy-on-write forks of it).
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
// Word access (ReadUint64, WriteUint64) at an 8-byte-aligned address is
// one block lookup: such a word never straddles a line.
type Store struct {
	blocks map[uint64]*[isa.LineSize]byte
	base   *Store // copy-on-write parent; nil for a flat store
	slab   [][isa.LineSize]byte
	// writes counts Write calls. A fork records its base's count when it
	// is taken (baseWrites); once any level below a fork has been written
	// since, the fork would mix old and new base state, so every access
	// through it panics.
	writes, baseWrites uint64
	// lo and hi bound the addresses of the store's own lines (meaningful
	// only when blocks is non-empty): a range scan skips a level whose
	// bounds miss the range.
	lo, hi uint64
}

// NewStore returns an empty store. Unwritten bytes read as zero.
func NewStore() *Store {
	return &Store{blocks: make(map[uint64]*[isa.LineSize]byte)}
}

// Fork returns a copy-on-write view of s. The fork sees every line of s
// and owns every line it writes. Writing s (or any level below it) ends
// the fork's life: any later access through the fork panics. A fork that
// must outlive such a write is flattened with Snapshot first. Concurrent
// read-only use of the base is safe.
func (s *Store) Fork() *Store {
	return &Store{blocks: make(map[uint64]*[isa.LineSize]byte), base: s, baseWrites: s.writes}
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

// put installs a block as one of the store's own lines.
func (s *Store) put(line uint64, b *[isa.LineSize]byte) {
	if len(s.blocks) == 0 || line < s.lo {
		s.lo = line
	}
	if len(s.blocks) == 0 || line > s.hi {
		s.hi = line
	}
	s.blocks[line] = b
}

// Blocks are carved from arena slabs: one heap allocation covers many
// lines. A slab is sized to the store's current block count, clamped to
// [minSlabBlocks, slabBlocks], so slabs grow geometrically with the store
// and a small crash image or fork does not carve a 32 KB slab for a
// handful of lines.
const (
	minSlabBlocks = 16
	slabBlocks    = 512
)

func (s *Store) newBlock() *[isa.LineSize]byte {
	if len(s.slab) == 0 {
		s.slab = make([][isa.LineSize]byte, min(max(len(s.blocks), minSlabBlocks), slabBlocks))
	}
	b := &s.slab[0]
	s.slab = s.slab[1:]
	return b
}

func (s *Store) block(addr uint64, create bool) *[isa.LineSize]byte {
	line := isa.LineAddr(addr)
	s.checkForks()
	if b := s.blocks[line]; b != nil {
		return b
	}
	var inherited *[isa.LineSize]byte
	for p := s.base; p != nil; p = p.base {
		if b := p.blocks[line]; b != nil {
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
	s.put(line, nb)
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
// allocates exactly its line count.
func (s *Store) Snapshot() *Store {
	s.checkForks()
	// visible reports whether level p's line a is not shadowed by a level
	// above it.
	visible := func(p *Store, a uint64) bool {
		for q := s; q != p; q = q.base {
			if q.blocks[a] != nil {
				return false
			}
		}
		return true
	}
	n := 0
	for p := s; p != nil; p = p.base {
		for a := range p.blocks {
			if visible(p, a) {
				n++
			}
		}
	}
	c := &Store{blocks: make(map[uint64]*[isa.LineSize]byte, n), slab: make([][isa.LineSize]byte, n)}
	for p := s; p != nil; p = p.base {
		for a, b := range p.blocks {
			if visible(p, a) {
				nb := c.newBlock()
				*nb = *b
				c.put(a, nb)
			}
		}
	}
	return c
}

// Writes returns how many Write calls the store has taken (its own, not
// its base's): a counter of its mutations that costs nothing to read.
func (s *Store) Writes() uint64 { return s.writes }

// Blocks returns the number of materialized 64-byte blocks (including
// lines inherited from the base of a fork).
func (s *Store) Blocks() int {
	if s.base == nil {
		return len(s.blocks)
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

// lines returns the sorted addresses of materialized blocks in [lo, hi],
// scanning only the levels of the fork chain whose bounds meet the range.
func (s *Store) lines(lo, hi uint64) []uint64 {
	s.checkForks()
	var out []uint64
	for p := s; p != nil; p = p.base {
		if len(p.blocks) == 0 || p.hi < lo || p.lo > hi {
			continue
		}
		for a := range p.blocks {
			if a >= lo && a <= hi {
				out = append(out, a)
			}
		}
	}
	slices.Sort(out)
	// A line a fork rewrote is listed by both levels.
	return slices.Compact(out)
}

// EqualRange reports whether two stores hold identical bytes over
// [addr, addr+size), along with the first differing address.
func (s *Store) EqualRange(o *Store, addr uint64, size int) (bool, uint64) {
	a := s.Read(addr, size)
	b := o.Read(addr, size)
	for i := range a {
		if a[i] != b[i] {
			return false, addr + uint64(i)
		}
	}
	return true, 0
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

// ReadSerialized parses a store written by Serialize.
func ReadSerialized(r io.Reader) (*Store, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("nvm: reading image magic: %w", err)
	}
	if hdr != storeMagic {
		return nil, fmt.Errorf("nvm: bad image magic %q", hdr[:])
	}
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("nvm: reading image block count: %w", err)
	}
	count := binary.LittleEndian.Uint64(hdr[:])
	s := NewStore()
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, fmt.Errorf("nvm: reading block %d address: %w", i, err)
		}
		addr := binary.LittleEndian.Uint64(hdr[:])
		if addr != isa.LineAddr(addr) {
			return nil, fmt.Errorf("nvm: block %d address %#x not line aligned", i, addr)
		}
		b := new([isa.LineSize]byte)
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return nil, fmt.Errorf("nvm: reading block %d data: %w", i, err)
		}
		s.put(addr, b)
	}
	return s, nil
}
