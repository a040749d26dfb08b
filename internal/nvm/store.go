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
	"sort"

	"repro/internal/isa"
)

// Store is the functional contents of main memory, kept as sparse 64-byte
// blocks. It is shared between the timing layer (writes drained from the
// memory controller land here) and the recovery layer (crash images are
// snapshots of it).
//
// A store can be a copy-on-write fork of a base store (Fork): reads fall
// through to the base, the first write to a line copies it. Simulations
// fork the (immutable, shared) workload init image instead of deep-copying
// it, which removes the dominant allocation cost of building a System.
type Store struct {
	blocks map[uint64]*[isa.LineSize]byte
	base   *Store // copy-on-write parent; nil for a flat store
	slab   [][isa.LineSize]byte
}

// NewStore returns an empty store. Unwritten bytes read as zero.
func NewStore() *Store {
	return &Store{blocks: make(map[uint64]*[isa.LineSize]byte)}
}

// Fork returns a copy-on-write view of s. The fork sees every line of s
// and owns every line it writes; s must not be written while forks of it
// are alive (concurrent read-only use of the base is safe).
func (s *Store) Fork() *Store {
	return &Store{blocks: make(map[uint64]*[isa.LineSize]byte), base: s}
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
	s.blocks[line] = nb
	return nb
}

// view returns the merged line map of the store and its base chain (own
// lines shadow inherited ones). For a flat store it is the block map
// itself and costs nothing.
func (s *Store) view() map[uint64]*[isa.LineSize]byte {
	if s.base == nil {
		return s.blocks
	}
	n := len(s.blocks)
	for p := s.base; p != nil; p = p.base {
		n += len(p.blocks)
	}
	m := make(map[uint64]*[isa.LineSize]byte, n)
	var add func(*Store)
	add = func(p *Store) {
		if p.base != nil {
			add(p.base)
		}
		for a, b := range p.blocks {
			m[a] = b
		}
	}
	add(s)
	return m
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

// ReadUint64 reads an 8-byte little-endian value.
func (s *Store) ReadUint64(addr uint64) uint64 {
	var buf [8]byte
	s.ReadInto(addr, buf[:])
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(buf[i])
	}
	return v
}

// WriteUint64 writes an 8-byte little-endian value.
func (s *Store) WriteUint64(addr, v uint64) {
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	s.Write(addr, buf[:])
}

// Snapshot returns a deep, flat copy of the store (a crash image). Forked
// stores are flattened: the copy holds the merged contents and has no base.
func (s *Store) Snapshot() *Store {
	v := s.view()
	c := &Store{
		blocks: make(map[uint64]*[isa.LineSize]byte, len(v)),
		slab:   make([][isa.LineSize]byte, len(v)),
	}
	for a, b := range v {
		nb := c.newBlock()
		*nb = *b
		c.blocks[a] = nb
	}
	return c
}

// Blocks returns the number of materialized 64-byte blocks (including
// lines inherited from the base of a fork).
func (s *Store) Blocks() int { return len(s.view()) }

// LinesIn returns the sorted addresses of materialized 64-byte blocks in
// [base, limit). Recovery uses it to scan log areas without touching
// never-written space.
func (s *Store) LinesIn(base, limit uint64) []uint64 {
	var out []uint64
	for a := range s.view() {
		if a >= base && a < limit {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
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
	v := s.view()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(v)))
	if _, err := w.Write(buf[:]); err != nil {
		return err
	}
	lines := make([]uint64, 0, len(v))
	for a := range v {
		lines = append(lines, a)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	for _, a := range lines {
		binary.LittleEndian.PutUint64(buf[:], a)
		if _, err := w.Write(buf[:]); err != nil {
			return err
		}
		if _, err := w.Write(v[a][:]); err != nil {
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
		s.blocks[addr] = b
	}
	return s, nil
}
