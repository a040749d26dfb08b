package nvm

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/stats"
)

// StartGap implements Start-Gap wear leveling (Qureshi et al., MICRO'09 —
// the paper's reference [39] for extending NVM lifetime): a region of N
// lines plus one spare. Every psi writes the gap moves by one line, slowly
// rotating the logical-to-physical mapping so that hot lines spread their
// writes over the whole region.
//
// The leveler remaps physical placement only: bank/row selection and
// endurance accounting see rotated addresses, while the functional store
// keeps logical addressing (the device presents a logical interface).
type StartGap struct {
	base  uint64 // region start (line aligned)
	lines uint64 // logical lines in the region (physical = lines+1)
	start uint64 // rotation offset
	gap   uint64 // current gap position in [0, lines]
	psi   int    // writes between gap movements
	count int
	moves uint64
}

// NewStartGap levels [base, base+lines*64). psi is the write interval
// between gap movements (Qureshi et al. use 100).
func NewStartGap(base uint64, lines uint64, psi int) (*StartGap, error) {
	if lines < 2 || psi < 1 || base%isa.LineSize != 0 {
		return nil, fmt.Errorf("nvm: bad start-gap region (base %#x, %d lines, psi %d)", base, lines, psi)
	}
	return &StartGap{base: base, lines: lines, gap: lines, psi: psi}, nil
}

// Contains reports whether addr falls in the leveled region.
func (s *StartGap) Contains(addr uint64) bool {
	return addr >= s.base && addr < s.base+s.lines*isa.LineSize
}

// Remap translates a logical line address to its current physical line
// address.
func (s *StartGap) Remap(addr uint64) uint64 {
	if !s.Contains(addr) {
		return addr
	}
	line := (addr - s.base) / isa.LineSize
	p := (line + s.start) % s.lines
	if p >= s.gap {
		p++
	}
	return s.base + p*isa.LineSize + (addr % isa.LineSize)
}

// OnWrite advances the write counter; every psi-th write moves the gap by
// one line and reports true (the movement itself costs one extra physical
// line write: the controller copies the line adjacent to the gap).
func (s *StartGap) OnWrite() (gapMoved bool, copyFrom, copyTo uint64) {
	s.count++
	if s.count < s.psi {
		return false, 0, 0
	}
	s.count = 0
	s.moves++
	if s.gap == 0 {
		s.gap = s.lines
		s.start = (s.start + 1) % s.lines
		return false, 0, 0 // wrap: bookkeeping only
	}
	from := s.base + (s.gap-1)*isa.LineSize
	to := s.base + s.gap*isa.LineSize
	s.gap--
	return true, from, to
}

// Moves returns how many gap movements have happened.
func (s *StartGap) Moves() uint64 { return s.moves }

// EnableWearLeveling attaches a Start-Gap leveler to the device: accesses
// inside its region are physically rotated, and gap movements cost one
// additional device write each.
func (d *Device) EnableWearLeveling(sg *StartGap) { d.wear = sg }

// wearRemap applies the leveler (if any) to an address and, on writes,
// advances the gap — charging the copy write to the device.
func (d *Device) wearRemap(now uint64, addr uint64, write bool) uint64 {
	if d.wear == nil || !d.wear.Contains(addr) {
		return addr
	}
	phys := d.wear.Remap(addr)
	if write {
		if moved, _, to := d.wear.OnWrite(); moved {
			// The gap copy is one extra physical write at the new gap's
			// neighbor; it shares the row with high probability and is
			// off the critical path, so only endurance and write counts
			// are charged.
			if d.Stats != nil {
				d.Stats.Writes[stats.WriteData]++
			}
			if d.endurance != nil {
				d.endurance[isa.LineAddr(to)]++
			}
		}
	}
	return phys
}
