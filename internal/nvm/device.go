package nvm

import (
	"repro/internal/config"
	"repro/internal/stats"
)

// Device is the timing model of the main-memory device: a single channel
// with cfg.Banks banks, each with one open row of cfg.RowBytes. Accesses
// are 64-byte bursts. Latencies follow the Table 1 DDR timing set; in NVM
// modes tRCD is replaced by the NVM activation latencies (29 read / 109 or
// 245 write memory cycles).
//
// The model is deliberately first-order: per-bank busy-until timestamps,
// row-buffer hit/miss/conflict classification, and write-recovery time.
// Bank-level parallelism and the read-vs-write latency asymmetry — the
// effects the paper's sensitivity studies exercise — are captured;
// command-bus contention is not.
type Device struct {
	cfg   config.Mem
	banks []bank
	st    *stats.Mem
}

type bank struct {
	openRow   int64 // -1 when closed
	busyUntil uint64
	lastWrite bool
}

// NewDevice returns a device with all banks idle and rows closed. Every
// access counts into st, which must not be nil.
func NewDevice(cfg config.Mem, st *stats.Mem) *Device {
	d := &Device{cfg: cfg, banks: make([]bank, cfg.Banks), st: st}
	for i := range d.banks {
		d.banks[i].openRow = -1
	}
	return d
}

// bankAndRow maps addresses at row granularity: a 2KB-aligned region
// shares one row buffer, and the row index is hashed across banks. Hot
// small regions — a thread's software-log head, a structure's header —
// then own an open row on "their" bank and hit it repeatedly, while
// large power-of-two-aligned regions (per-thread heaps and log areas)
// spread across banks without aliasing.
func (d *Device) bankAndRow(addr uint64) (int, int64) {
	banks := uint64(d.cfg.Banks)
	rowIdx := addr / uint64(d.cfg.RowBytes)
	// Multiplicative mixing: XOR-shift hashes preserve the low bits of
	// power-of-two strides, which would pile every thread's hot rows onto
	// one bank.
	h := (rowIdx * 0x9E3779B97F4A7C15) >> 32
	return int(h % banks), int64(rowIdx)
}

// cpuCycles converts memory-bus cycles to CPU cycles.
func (d *Device) cpuCycles(memCycles int) uint64 {
	return uint64(float64(memCycles)*d.cfg.ClockRatio + 0.5)
}

// activation latency (tRCD equivalent) for the configured device kind.
func (d *Device) trcd(write bool) int {
	t := d.cfg.Timing
	switch d.cfg.Kind {
	case config.DRAM:
		return t.TRCD
	default:
		if write {
			return t.TRCDWriteNVM
		}
		return t.TRCDReadNVM
	}
}

// burst is the data transfer time of one 64-byte burst (BL8 at 8B per
// transfer = 4 memory cycles).
const burst = 4

// Access performs one 64-byte access beginning no earlier than now and
// returns the CPU cycle at which it completes. It updates bank state and
// row-buffer statistics. Write accesses additionally count toward NVMM
// write totals under the given cause.
func (d *Device) Access(now uint64, addr uint64, write bool, cause stats.WriteCause) uint64 {
	bi, row := d.bankAndRow(addr)
	bk := &d.banks[bi]
	start := now
	if bk.busyUntil > start {
		start = bk.busyUntil
	}

	// Writes pay the full NVM cell-write latency before they are durable,
	// but they commit out of the row buffer and do not occupy the bank
	// for that long: occupancy uses the DRAM activate time. (Without this
	// write buffering, a handful of hot lines would saturate their banks
	// at ~150ns per write and turn every scheme write-bandwidth-bound,
	// which neither the paper's DRAMsim2 configuration nor real PCM-style
	// parts exhibit.) Reads expose the NVM activate latency directly.
	t := d.cfg.Timing
	var lat, occ int
	switch {
	case bk.openRow == row:
		// Row-buffer hit: CAS latency, but the bank is only occupied for
		// the burst — column accesses to an open row pipeline.
		lat = t.TCAS + burst
		occ = burst
		d.st.RowBufferHits++
	case bk.openRow < 0:
		// Closed bank: activate + CAS.
		lat = d.trcd(write) + t.TCAS + burst
		occ = t.TRCD + t.TCAS + burst
		d.st.RowBufferMiss++
	default:
		// Conflict: precharge + activate + CAS, plus write recovery if
		// the last access was a write.
		lat = t.TRP + d.trcd(write) + t.TCAS + burst
		occ = t.TRP + t.TRCD + t.TCAS + burst
		if bk.lastWrite {
			lat += t.TWR
			occ += t.TWR
		}
		d.st.RowBufferMiss++
	}
	if !write {
		occ = lat
	}

	done := start + d.cpuCycles(lat)
	bk.openRow = row
	bk.busyUntil = start + d.cpuCycles(occ)
	bk.lastWrite = write
	d.st.BankBusy += d.cpuCycles(occ)

	if write {
		d.st.Writes[cause]++
	} else {
		d.st.Reads++
	}
	return done
}

// BusyBanks counts banks still occupied at cycle now — the device-side
// pressure signal the trace layer samples per epoch.
func (d *Device) BusyBanks(now uint64) int {
	n := 0
	for i := range d.banks {
		if d.banks[i].busyUntil > now {
			n++
		}
	}
	return n
}

// NextFree returns the earliest cycle at which the bank holding addr can
// begin a new access; the memory-controller arbiter uses it to prefer
// ready banks.
func (d *Device) NextFree(addr uint64) uint64 {
	bi, _ := d.bankAndRow(addr)
	return d.banks[bi].busyUntil
}

// IsOpenRow reports whether addr would be a row-buffer hit right now. The
// memory controller's FR-FCFS drain uses it to batch same-row writes and
// avoid precharge/activate ping-pong between hot rows.
func (d *Device) IsOpenRow(addr uint64) bool {
	bi, row := d.bankAndRow(addr)
	return d.banks[bi].openRow == row
}

// SameRow reports whether two addresses share a bank row; the controller
// batches such writes so one activate serves all of them.
func (d *Device) SameRow(a, b uint64) bool {
	ba, ra := d.bankAndRow(a)
	bb, rb := d.bankAndRow(b)
	return ba == bb && ra == rb
}
