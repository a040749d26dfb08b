// Package logfmt defines the on-NVM undo-log entry encodings shared by
// the timing layer (which creates entries), the code generators (software
// logging writes entries with plain stores), and recovery (which parses
// crash images).
//
// Three formats exist:
//
//   - Proteus entries (§4.1): one 64-byte line holding 32 bytes of data
//     plus metadata (log-from address, transaction ID, flags). The commit
//     mark lives in the flags of a transaction's last entry (§4.3).
//   - ATOM entries: a 64-byte metadata line (valid word, log-from address,
//     transaction ID) followed by a 64-byte data line. Truncation zeroes
//     the metadata line.
//   - Software (PMEM) entries: the same two-line layout as ATOM, written
//     by plain stores; validity is governed by the per-thread logFlag
//     protocol of Figure 2 rather than per-entry valid words.
//
// Every entry carries CRC32 integrity words so recovery can distinguish a
// whole, untampered entry from a torn line (only a prefix of its 8-byte
// words persisted) or log-area bit corruption. The paper's formats leave
// these bytes unused; packing the checksums into existing metadata words
// keeps the entry sizes — and for software logging the store count —
// unchanged, so the timing results are unaffected.
package logfmt

import (
	"encoding/binary"
	"hash/crc32"

	"repro/internal/isa"
)

// LineState classifies a 64-byte line of log area.
type LineState int

const (
	// LineEmpty is a line holding no entry (never written or invalidated;
	// reads as all-zero bytes at the validity markers).
	LineEmpty LineState = iota
	// LineValid is a whole entry whose integrity checks pass.
	LineValid
	// LineCorrupt is a line that claims to hold an entry but fails its
	// integrity check — a torn write or bit corruption. Recovery must
	// report it, never apply it.
	LineCorrupt
)

func (s LineState) String() string {
	switch s {
	case LineEmpty:
		return "empty"
	case LineValid:
		return "valid"
	case LineCorrupt:
		return "corrupt"
	}
	return "LineState(?)"
}

// Proteus entry layout within one 64-byte line.
const (
	ProteusEntrySize = isa.LineSize
	proteusDataOff   = 0  // 32 bytes of logged data
	proteusFromOff   = 32 // 8-byte log-from address
	proteusTxOff     = 40 // 4-byte transaction ID
	proteusFlagOff   = 44 // 1-byte flags
	proteusSeqOff    = 48 // 8-byte program-order sequence number
	proteusCRCOff    = 56 // 4-byte CRC32 over bytes [0, 56)
	// The sequence number materializes the §4.2 invariant that log-to
	// addresses are assigned in program order: recovery uses it to apply
	// entries newest-first so the earliest entry per address wins.
	// ProteusFlagLast marks the last entry of a transaction; its presence
	// in a durable entry means the transaction committed.
	ProteusFlagLast = 0x1
	// ProteusFlagValid is set on every entry so recovery can distinguish
	// entries from never-written log area.
	ProteusFlagValid = 0x2
)

// ProteusEntry is a decoded Proteus log entry.
type ProteusEntry struct {
	Data [isa.LogBlockSize]byte
	From uint64
	Tx   uint32
	Seq  uint64
	Last bool
}

// crcIEEE is a table-driven CRC-32 (IEEE), byte-identical to
// crc32.ChecksumIEEE. The stdlib checksum dispatches into assembly, which
// defeats escape analysis and forces every stack-built line image to the
// heap; this pure-Go loop keeps the encoders allocation-free.
func crcIEEE(data []byte) uint32 {
	crc := ^uint32(0)
	for _, b := range data {
		crc = crc32.IEEETable[byte(crc)^b] ^ (crc >> 8)
	}
	return ^crc
}

func proteusCRC(line *[isa.LineSize]byte) uint32 {
	return crcIEEE(line[:proteusCRCOff])
}

// EncodeProteus writes the entry into a 64-byte line image.
func EncodeProteus(e ProteusEntry) [isa.LineSize]byte {
	var line [isa.LineSize]byte
	copy(line[proteusDataOff:], e.Data[:])
	binary.LittleEndian.PutUint64(line[proteusFromOff:], e.From)
	binary.LittleEndian.PutUint32(line[proteusTxOff:], e.Tx)
	binary.LittleEndian.PutUint64(line[proteusSeqOff:], e.Seq)
	flags := byte(ProteusFlagValid)
	if e.Last {
		flags |= ProteusFlagLast
	}
	line[proteusFlagOff] = flags
	binary.LittleEndian.PutUint32(line[proteusCRCOff:], proteusCRC(&line))
	return line
}

// DecodeProteusChecked parses a 64-byte line into an entry and its
// integrity state. A line without the valid flag that is not all-zero is
// reported corrupt: entries are only ever written whole, and invalidation
// writes zeros, so a nonzero invalid line is a torn write or bit damage.
func DecodeProteusChecked(line []byte) (ProteusEntry, LineState) {
	var e ProteusEntry
	if len(line) < isa.LineSize {
		return e, LineEmpty
	}
	if line[proteusFlagOff]&ProteusFlagValid == 0 {
		for _, b := range line[:isa.LineSize] {
			if b != 0 {
				return e, LineCorrupt
			}
		}
		return e, LineEmpty
	}
	var buf [isa.LineSize]byte
	copy(buf[:], line)
	if binary.LittleEndian.Uint32(line[proteusCRCOff:]) != proteusCRC(&buf) {
		return e, LineCorrupt
	}
	// The reserved tail after the CRC is never written; nonzero bytes
	// there are corruption the checksum cannot see.
	for _, b := range line[proteusCRCOff+4 : isa.LineSize] {
		if b != 0 {
			return e, LineCorrupt
		}
	}
	copy(e.Data[:], line[proteusDataOff:proteusDataOff+isa.LogBlockSize])
	e.From = binary.LittleEndian.Uint64(line[proteusFromOff:])
	e.Tx = binary.LittleEndian.Uint32(line[proteusTxOff:])
	e.Seq = binary.LittleEndian.Uint64(line[proteusSeqOff:])
	e.Last = line[proteusFlagOff]&ProteusFlagLast != 0
	return e, LineValid
}

// SetProteusLast sets the commit mark on an encoded entry in place and
// refreshes the integrity word.
func SetProteusLast(line *[isa.LineSize]byte) {
	line[proteusFlagOff] |= ProteusFlagLast
	binary.LittleEndian.PutUint32(line[proteusCRCOff:], proteusCRC(line))
}

// Two-line (meta + data) entry layout used by ATOM and software logging.
// The valid word packs the magic (low half) with a CRC32 of the remaining
// metadata words (high half); the length word packs the logged length (low
// half) with a CRC32 of the logged data (high half). Both checksums ride
// in words the formats already write, so software logging still stores
// exactly four meta words per entry.
const (
	PairEntrySize = 2 * isa.LineSize
	pairValidOff  = 0  // magic (low 32 bits) | meta CRC32 (high 32 bits)
	pairFromOff   = 8  // 8-byte log-from address
	pairTxOff     = 16 // 8-byte transaction ID
	pairLenOff    = 24 // logged length (low 32 bits) | data CRC32 (high)
	pairMetaEnd   = 32 // metadata bytes covered by the meta CRC: [8, 32)
	// PairValidMagic distinguishes a written entry from zeroed area.
	PairValidMagic = 0xA70A70A7
)

// PairEntry is a decoded two-line log entry.
type PairEntry struct {
	From    uint64
	Tx      uint64
	Len     uint64
	DataCRC uint32
	Data    [isa.LineSize]byte
}

// PairDataCRC computes the data-line checksum stored in the meta line.
func PairDataCRC(data []byte) uint32 { return crcIEEE(data) }

// EncodePairMeta builds the metadata line. The caller provides DataCRC
// over the Len bytes the data line will hold (PairDataCRC).
func EncodePairMeta(e PairEntry) [isa.LineSize]byte {
	var line [isa.LineSize]byte
	binary.LittleEndian.PutUint64(line[pairFromOff:], e.From)
	binary.LittleEndian.PutUint64(line[pairTxOff:], e.Tx)
	binary.LittleEndian.PutUint64(line[pairLenOff:], e.Len&0xFFFF_FFFF|uint64(e.DataCRC)<<32)
	meta := crcIEEE(line[pairFromOff:pairMetaEnd])
	binary.LittleEndian.PutUint64(line[pairValidOff:], PairValidMagic|uint64(meta)<<32)
	return line
}

// DecodePairMetaChecked parses a metadata line into an entry and its
// integrity state. As with Proteus lines, a nonzero line without the magic
// is corrupt, not empty.
func DecodePairMetaChecked(line []byte) (PairEntry, LineState) {
	var e PairEntry
	if len(line) < isa.LineSize {
		return e, LineEmpty
	}
	valid := binary.LittleEndian.Uint64(line[pairValidOff:])
	if uint32(valid) != PairValidMagic {
		for _, b := range line[:isa.LineSize] {
			if b != 0 {
				return e, LineCorrupt
			}
		}
		return e, LineEmpty
	}
	if uint32(valid>>32) != crcIEEE(line[pairFromOff:pairMetaEnd]) {
		return e, LineCorrupt
	}
	e.From = binary.LittleEndian.Uint64(line[pairFromOff:])
	e.Tx = binary.LittleEndian.Uint64(line[pairTxOff:])
	lw := binary.LittleEndian.Uint64(line[pairLenOff:])
	e.Len = lw & 0xFFFF_FFFF
	e.DataCRC = uint32(lw >> 32)
	return e, LineValid
}

// LogFlagAddr returns the address of a thread's persistent logFlag word
// for the software-logging protocol (Figure 2). The word packs the
// in-flight transaction ID and its undo-entry count so both persist
// atomically (8-byte persist atomicity is the standard NVM assumption);
// zero means no transaction is in flight.
func LogFlagAddr(thread int) uint64 {
	base, _ := isa.HeapWindow(thread)
	return base
}

// PackLogFlag builds the logFlag word from a transaction ID and its entry
// count.
func PackLogFlag(tx uint32, entries int) uint64 {
	return uint64(tx)<<32 | uint64(uint32(entries))
}

// UnpackLogFlag splits a logFlag word.
func UnpackLogFlag(w uint64) (tx uint32, entries int) {
	return uint32(w >> 32), int(uint32(w))
}

// SWLogBase returns where software logging places its first entry in the
// thread's log area (entries are rewritten from the base each
// transaction).
func SWLogBase(thread int) uint64 {
	base, _ := isa.LogWindow(thread)
	return base
}
