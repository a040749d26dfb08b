// Package config holds the machine configuration of Table 1 of the paper
// and the memory-kind variants used in the sensitivity studies (§7).
//
// All latencies are expressed in CPU cycles at 3.4GHz unless noted. Memory
// device timings are expressed in memory-bus cycles at 800MHz (DDR3-1600)
// and converted with the clock ratio.
package config

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/enum"
	"repro/internal/isa"
)

// MemKind selects the main-memory device model.
type MemKind int

const (
	// NVMFast is the paper's default NVM: 50ns read, 150ns write
	// (tRCD 29 read / 109 write in DDR cycles).
	NVMFast MemKind = iota
	// NVMSlow raises the write latency to 300ns (§7.1) keeping 50ns read.
	NVMSlow
	// DRAM uses the unmodified DDR3-1600 timing set (§7.2).
	DRAM
)

func (k MemKind) String() string {
	switch k {
	case NVMFast:
		return "nvm-fast"
	case NVMSlow:
		return "nvm-slow"
	case DRAM:
		return "dram"
	}
	return fmt.Sprintf("MemKind(%d)", int(k))
}

var memKinds = enum.Names[MemKind]{What: "memory kind", Values: []MemKind{NVMFast, NVMSlow, DRAM}}

// MarshalText encodes a memory kind by name.
func (k MemKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText resolves a memory kind name (nvm-fast, nvm-slow, dram),
// case-insensitively.
func (k *MemKind) UnmarshalText(text []byte) error { return memKinds.Unmarshal(k, text) }

// Core holds the out-of-order core parameters (Table 1, Processor row).
type Core struct {
	Width     int // dispatch/retire width (5-wide issue/retire)
	ROB       int // reorder buffer entries
	LoadQ     int
	StoreQ    int
	StoreBuf  int // post-retirement store buffer entries
	AluPerMem int // modeled ALU units emitted per data-structure memory op
	// AluPerTxn models the fixed per-operation harness work outside the
	// data structure proper — reading the operation and key from the
	// input stream, call overhead, key hashing (§5.2's workload drivers).
	// It is identical across schemes and so only rescales the baseline.
	AluPerTxn int
}

// Cache holds one cache level's geometry and latency.
type Cache struct {
	SizeBytes int
	Ways      int
	Latency   int // total access latency in CPU cycles, load-to-use
}

// Sets returns the number of sets.
func (c Cache) Sets() int { return c.SizeBytes / (64 * c.Ways) }

// DDRTiming holds the DDR3-1600 timings of Table 1 that the device model
// uses, in memory-bus cycles. Activation-window (tRAS, tRC, tRRD, tFAW) and
// bus-turnaround (tWTR, tRTP) timings are not modeled.
type DDRTiming struct {
	TCAS, TRCD, TRP, TWR int
	// TRCDReadNVM/TRCDWriteNVM replace TRCD when the device is NVM.
	TRCDReadNVM  int
	TRCDWriteNVM int
}

// Mem holds the main-memory configuration.
type Mem struct {
	Kind       MemKind
	Banks      int
	RowBytes   int
	ClockRatio float64 // CPU cycles per memory-bus cycle (3.4GHz / 800MHz)
	Timing     DDRTiming
	// L3ToMC is the on-chip latency from the L3 to the memory controller
	// in CPU cycles (one way).
	L3ToMC int
	// ReadQ, WPQ and LPQ are the memory-controller queue capacities.
	ReadQ int
	WPQ   int
	LPQ   int
	// DrainHi and MaxWPQAge set the write-drain policy (§4.3's scheduling
	// side): below DrainHi occupancy the controller holds writes back so
	// they can coalesce, and any entry older than MaxWPQAge cycles is
	// drained regardless of occupancy (log-area writes, whose completion
	// is acceptance, age 8x longer so a transaction's worth batches into
	// one row activation).
	DrainHi   int
	MaxWPQAge int
}

// Proteus holds the sizes of the new hardware structures (Table 1 last
// row): 8 log registers, 16 LogQ entries, 64-entry 8-way LLT, 256-entry
// LPQ (the LPQ capacity lives in Mem.LPQ so the memory controller owns it).
type Proteus struct {
	LogRegs int
	LogQ    int
	LLTSize int
	LLTWays int
}

// ATOM holds the parameters of the ATOM comparison model: how many active
// log entries the MC-side hardware can track per transaction before
// truncation falls back to searching the log area (§4.3). The model always
// applies the posted-log and source-log optimizations, as the paper's
// "best-performing version" does.
type ATOM struct {
	MCTrackEntries int
	// InFlight is how many log-creation requests can be outstanding at
	// the MC concurrently. ATOM still ties each store's retirement to its
	// log acknowledgment (unlike Proteus's LogQ decoupling), but requests
	// themselves pipeline.
	InFlight int
}

// Config is the full machine configuration.
type Config struct {
	Cores   int
	Core    Core
	L1D     Cache
	L2      Cache
	L3      Cache
	Mem     Mem
	Proteus Proteus
	ATOM    ATOM
}

// Default returns the Table 1 baseline configuration.
func Default() Config {
	return Config{
		Cores: 4,
		Core: Core{
			Width:     5,
			ROB:       224,
			LoadQ:     72,
			StoreQ:    56,
			StoreBuf:  56,
			AluPerMem: 2,
			AluPerTxn: 2000,
		},
		L1D: Cache{SizeBytes: 32 << 10, Ways: 8, Latency: 4},
		L2:  Cache{SizeBytes: 256 << 10, Ways: 8, Latency: 12},
		L3:  Cache{SizeBytes: 8 << 20, Ways: 16, Latency: 42},
		Mem: Mem{
			Kind:       NVMFast,
			Banks:      16,
			RowBytes:   2048,
			ClockRatio: 4.25,
			Timing: DDRTiming{
				TCAS: 11, TRCD: 11, TRP: 11, TWR: 12,
				TRCDReadNVM:  29,
				TRCDWriteNVM: 109,
			},
			L3ToMC:    10,
			ReadQ:     32,
			WPQ:       128,
			LPQ:       256,
			DrainHi:   8,
			MaxWPQAge: 48,
		},
		Proteus: Proteus{LogRegs: 8, LogQ: 16, LLTSize: 64, LLTWays: 8},
		ATOM:    ATOM{MCTrackEntries: 32, InFlight: 4},
	}
}

// WithMemKind returns a copy of c configured for the given memory kind,
// adjusting the NVM write latency for NVMSlow (300ns write = 245 DDR
// cycles at 1.25ns/cycle, keeping the 50ns read).
func (c Config) WithMemKind(k MemKind) Config {
	c.Mem.Kind = k
	switch k {
	case NVMFast:
		c.Mem.Timing.TRCDReadNVM = 29
		c.Mem.Timing.TRCDWriteNVM = 109
	case NVMSlow:
		c.Mem.Timing.TRCDReadNVM = 29
		c.Mem.Timing.TRCDWriteNVM = 245
	case DRAM:
		// Unmodified DDR3-1600 timing; TRCD applies to both directions.
	}
	return c
}

// Validate reports configuration errors. Every numeric leaf is bounded
// from both sides. NewSystem allocates the caches, queues and Proteus
// structures at their configured sizes and ticks through every latency,
// and a cluster sim payload carries the whole Config, so an upper bound
// is what keeps one decoded payload from exhausting a worker. Each upper
// bound sits well above the largest value a figure, ablation, test or the
// benchmark uses (noted beside it), and 0 is allowed only where a run
// uses it.
func (c Config) Validate() error {
	for _, b := range []struct {
		leaf      string
		v, lo, hi int
	}{
		{"Cores", c.Cores, 1, isa.MaxThreads},           // one heap and log window per thread
		{"Core.Width", c.Core.Width, 1, 64},             // 5
		{"Core.ROB", c.Core.ROB, 1, 4096},               // 224
		{"Core.LoadQ", c.Core.LoadQ, 1, 4096},           // 72
		{"Core.StoreQ", c.Core.StoreQ, 1, 4096},         // 56
		{"Core.StoreBuf", c.Core.StoreBuf, 1, 4096},     // 56
		{"Core.AluPerMem", c.Core.AluPerMem, 1, 1024},   // 8
		{"Core.AluPerTxn", c.Core.AluPerTxn, 0, 100000}, // 2,000; litmus runs 0
		{"L1D.SizeBytes", c.L1D.SizeBytes, 64, 1 << 20}, // 32 KiB
		{"L2.SizeBytes", c.L2.SizeBytes, 64, 8 << 20},   // 256 KiB
		{"L3.SizeBytes", c.L3.SizeBytes, 64, 64 << 20},  // 8 MiB
		{"L1D.Ways", c.L1D.Ways, 1, 64},                 // 8
		{"L2.Ways", c.L2.Ways, 1, 64},                   // 8
		{"L3.Ways", c.L3.Ways, 1, 64},                   // 16
		{"L1D.Latency", c.L1D.Latency, 1, 1000},         // 8
		{"L2.Latency", c.L2.Latency, 1, 1000},           // 24
		{"L3.Latency", c.L3.Latency, 1, 1000},           // 60
		{"Mem.Kind", int(c.Mem.Kind), int(NVMFast), int(DRAM)},
		{"Mem.Banks", c.Mem.Banks, 1, 1024},                             // 16
		{"Mem.RowBytes", c.Mem.RowBytes, 64, 65536},                     // 2,048
		{"Mem.Timing.TCAS", c.Mem.Timing.TCAS, 1, 1000},                 // 22 memory cycles
		{"Mem.Timing.TRCD", c.Mem.Timing.TRCD, 1, 1000},                 // 22
		{"Mem.Timing.TRP", c.Mem.Timing.TRP, 1, 1000},                   // 22
		{"Mem.Timing.TWR", c.Mem.Timing.TWR, 1, 1000},                   // 24
		{"Mem.Timing.TRCDReadNVM", c.Mem.Timing.TRCDReadNVM, 1, 1000},   // 58
		{"Mem.Timing.TRCDWriteNVM", c.Mem.Timing.TRCDWriteNVM, 1, 1000}, // 245
		{"Mem.L3ToMC", c.Mem.L3ToMC, 1, 1000},                           // 30
		{"Mem.ReadQ", c.Mem.ReadQ, 1, 4096},                             // 32
		{"Mem.WPQ", c.Mem.WPQ, 1, 4096},                                 // 256
		{"Mem.LPQ", c.Mem.LPQ, 1, 65536},                                // 512; Table 3's transactions fit 65,536
		{"Mem.DrainHi", c.Mem.DrainHi, 0, c.Mem.WPQ},                    // 64
		{"Mem.MaxWPQAge", c.Mem.MaxWPQAge, 1, 10000},                    // 500
		{"Proteus.LogRegs", c.Proteus.LogRegs, 1, 1024},                 // 8
		{"Proteus.LogQ", c.Proteus.LogQ, 1, 4096},                       // 64
		{"Proteus.LLTSize", c.Proteus.LLTSize, 1, 4096},                 // 256
		{"Proteus.LLTWays", c.Proteus.LLTWays, 1, 64},                   // 8
		{"ATOM.MCTrackEntries", c.ATOM.MCTrackEntries, 1, 4096},         // 32
		{"ATOM.InFlight", c.ATOM.InFlight, 1, 1024},                     // 16
	} {
		if b.v < b.lo || b.v > b.hi {
			return fmt.Errorf("config: %s %d outside [%d, %d]", b.leaf, b.v, b.lo, b.hi)
		}
	}
	// NaN fails both comparisons.
	if !(c.Mem.ClockRatio > 0 && c.Mem.ClockRatio <= 64) { // 4.25
		return fmt.Errorf("config: Mem.ClockRatio %v outside (0, 64]", c.Mem.ClockRatio)
	}
	for _, cc := range []struct {
		name string
		c    Cache
	}{{"L1D", c.L1D}, {"L2", c.L2}, {"L3", c.L3}} {
		if cc.c.SizeBytes < 64*cc.c.Ways || cc.c.Sets()&(cc.c.Sets()-1) != 0 {
			return fmt.Errorf("config: %s geometry invalid (%d bytes, %d ways)", cc.name, cc.c.SizeBytes, cc.c.Ways)
		}
	}
	if c.Proteus.LLTSize%c.Proteus.LLTWays != 0 {
		return fmt.Errorf("config: LLT size %d not a multiple of its %d ways", c.Proteus.LLTSize, c.Proteus.LLTWays)
	}
	return nil
}

// Fingerprint returns a short stable digest covering every configuration
// field. Two configs share a fingerprint exactly when they are equal, so
// it serves as a memoization key for simulation results: the engine runs
// each (workload, scheme, fingerprint) tuple at most once per invocation,
// and the same key addresses the persistent result store shared by the
// CLIs and the job server — a silent collision would serve one config's
// results for another's, so TestFingerprintCoversEveryField asserts by
// reflection that mutating any field changes the digest. The digest
// hashes the Go-syntax rendering of the struct, so it is stable within a
// build but intentionally changes when fields are added.
func (c Config) Fingerprint() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%#v", c)))
	return hex.EncodeToString(h[:8])
}
