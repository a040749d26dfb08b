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

// ParseMemKind resolves a memory kind by name, case-insensitively
// (nvm-fast, nvm-slow, dram). MemKind has no text encoding: a Config
// encodes its memory kind as the integer.
func ParseMemKind(s string) (MemKind, error) { return memKinds.Lookup(s) }

// Core holds the out-of-order core parameters (Table 1, Processor row).
type Core struct {
	Width     int // dispatch/retire width (5-wide issue/retire)
	ROB       int // reorder buffer entries
	FetchQ    int
	IssueQ    int
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

// DDRTiming is the DDR3-1600 timing set of Table 1, in memory-bus cycles.
type DDRTiming struct {
	TCAS, TRCD, TRP, TRAS, TRC, TWR, TWTR, TRTP, TRRD, TFAW int
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
// truncation falls back to searching the log area (§4.3), and whether the
// posted-log and source-log optimizations are on (they always are in the
// paper's "best-performing version").
type ATOM struct {
	MCTrackEntries int
	PostedLog      bool
	SourceLog      bool
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
			FetchQ:    48,
			IssueQ:    64,
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
				TCAS: 11, TRCD: 11, TRP: 11, TRAS: 28, TRC: 39,
				TWR: 12, TWTR: 6, TRTP: 6, TRRD: 5, TFAW: 24,
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
		ATOM:    ATOM{MCTrackEntries: 32, PostedLog: true, SourceLog: true, InFlight: 4},
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

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Cores < 1 {
		return fmt.Errorf("config: cores must be >= 1, got %d", c.Cores)
	}
	if c.Core.Width < 1 || c.Core.ROB < 1 {
		return fmt.Errorf("config: bad core width/ROB (%d/%d)", c.Core.Width, c.Core.ROB)
	}
	for _, cc := range []struct {
		name string
		c    Cache
	}{{"L1D", c.L1D}, {"L2", c.L2}, {"L3", c.L3}} {
		if cc.c.Ways < 1 || cc.c.SizeBytes < 64*cc.c.Ways || cc.c.Sets()&(cc.c.Sets()-1) != 0 {
			return fmt.Errorf("config: %s geometry invalid (%d bytes, %d ways)", cc.name, cc.c.SizeBytes, cc.c.Ways)
		}
	}
	if c.Mem.Banks < 1 || c.Mem.RowBytes < 64 {
		return fmt.Errorf("config: bad memory geometry")
	}
	if c.Mem.ReadQ < 1 || c.Mem.WPQ < 1 || c.Mem.LPQ < 1 {
		return fmt.Errorf("config: bad MC queue capacities (readq %d, wpq %d, lpq %d)",
			c.Mem.ReadQ, c.Mem.WPQ, c.Mem.LPQ)
	}
	if c.Mem.DrainHi < 0 || c.Mem.DrainHi > c.Mem.WPQ {
		return fmt.Errorf("config: DrainHi %d outside [0, WPQ=%d]", c.Mem.DrainHi, c.Mem.WPQ)
	}
	if c.Mem.MaxWPQAge < 1 {
		return fmt.Errorf("config: MaxWPQAge must be >= 1, got %d", c.Mem.MaxWPQAge)
	}
	if c.Proteus.LogRegs < 1 || c.Proteus.LogQ < 1 || c.Proteus.LLTWays < 1 ||
		c.Proteus.LLTSize%c.Proteus.LLTWays != 0 {
		return fmt.Errorf("config: bad Proteus structure sizes")
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
