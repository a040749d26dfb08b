package isa

// Address-space layout of the simulated machine. All regions are
// physically backed by the simulated main memory; the distinction between
// them drives cacheability (log areas are uncacheable, §4.2), persistence
// accounting, and recovery scanning.
const (
	// LineSize is the cache line size in bytes (Table 1).
	LineSize = 64
	// LogBlockSize is the Proteus logging granularity: 32 bytes of data
	// per log entry, leaving the remainder of the 64B entry for metadata
	// (§4.1).
	LogBlockSize = 32

	// HeapBase is the start of the persistent heap. Each thread owns a
	// disjoint HeapStride-sized window.
	HeapBase   uint64 = 0x1_0000_0000
	HeapStride uint64 = 0x1000_0000 // 256 MiB per thread

	// LogBase is the start of the per-thread log areas. Each thread owns
	// one LogStride-sized circular buffer (§4.1: one log area per thread).
	LogBase   uint64 = 0x2_0000_0000
	LogStride uint64 = 0x0100_0000 // 16 MiB per thread

	// VolatileBase is the start of the volatile region (locks and other
	// non-persistent bookkeeping). Writes here never count as NVMM
	// persistent-state and are ignored by recovery.
	VolatileBase   uint64 = 0x3_0000_0000
	VolatileStride uint64 = 0x0010_0000

	// MaxThreads is the number of heap windows below LogBase: the most
	// threads whose heap, log and volatile windows stay disjoint.
	MaxThreads = int((LogBase - HeapBase) / HeapStride)
)

// HeapWindow returns the [base, limit) persistent-heap window of a thread.
func HeapWindow(thread int) (base, limit uint64) {
	base = HeapBase + uint64(thread)*HeapStride
	return base, base + HeapStride
}

// LogWindow returns the [base, limit) log-area window of a thread.
func LogWindow(thread int) (base, limit uint64) {
	base = LogBase + uint64(thread)*LogStride
	return base, base + LogStride
}

// VolatileWindow returns the [base, limit) volatile window of a thread.
func VolatileWindow(thread int) (base, limit uint64) {
	base = VolatileBase + uint64(thread)*VolatileStride
	return base, base + VolatileStride
}

// IsLogAddr reports whether addr falls in any thread's log area. Log
// addresses are uncacheable: log flushes bypass the cache hierarchy and go
// straight to the memory controller.
func IsLogAddr(addr uint64) bool {
	return addr >= LogBase && addr < LogBase+uint64(MaxThreads)*LogStride
}

// IsVolatileAddr reports whether addr falls in the volatile region.
func IsVolatileAddr(addr uint64) bool {
	return addr >= VolatileBase
}

// IsPersistentAddr reports whether addr belongs to the persistent domain
// (heap or log area).
func IsPersistentAddr(addr uint64) bool {
	return addr >= HeapBase && addr < VolatileBase
}

// LineAddr returns the address of the cache line containing addr.
func LineAddr(addr uint64) uint64 { return addr &^ uint64(LineSize-1) }

// LogBlockAddr returns the address of the 32-byte logging block containing
// addr.
func LogBlockAddr(addr uint64) uint64 { return addr &^ uint64(LogBlockSize-1) }
