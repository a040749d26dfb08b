package nvm

import (
	"bytes"
	"encoding/binary"
	"maps"
	"slices"
	"testing"

	"repro/internal/isa"
)

// Each fuzzed store operation is storeOpSize bytes: an opcode, a region,
// a 16-bit little-endian offset into the region, a length and an 8-byte
// value.
const storeOpSize = 13

// Opcodes of FuzzStoreMatchesModel.
const (
	opWrite       = iota // Write of 1..80 bytes at region+offset
	opWriteUint64        // WriteUint64 at region+offset, aligned or not
	opFork               // push a fork of the top level (at most three levels)
	opSnapshot           // replace the chain by the top level's Snapshot
	opPop                // drop the top fork, back to its base
	numStoreOps
)

// fuzzRegions are the windows a fuzzed address falls in: two threads'
// heap windows, two log windows and a volatile window.
var fuzzRegions = [...]uint64{
	isa.HeapBase, isa.HeapBase + isa.HeapStride, isa.LogBase, isa.LogBase + isa.LogStride, isa.VolatileBase,
}

// storeOp encodes one operation for the seed corpus.
func storeOp(code, region byte, off uint16, length byte, v uint64) []byte {
	b := []byte{code, region, byte(off), byte(off >> 8), length}
	return binary.LittleEndian.AppendUint64(b, v)
}

// fuzzData expands an operation's value into n data bytes.
func fuzzData(v uint64, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(v>>(8*(i%8))) + byte(i/8)
	}
	return out
}

// FuzzStoreMatchesModel decodes its input into a sequence of writes
// (byte and word, aligned, unaligned and straddling a line or a page, in
// heap, log and volatile windows), forks, snapshots and pops over a chain
// of at most three levels, and after every operation compares every level
// of the chain against a flat byte map through ReadUint64, Read, LineView,
// LinesIn over whole and partial ranges, Blocks, Writes and Serialize.
// Only the top level is written, so the levels below must keep matching
// their own models.
func FuzzStoreMatchesModel(f *testing.F) {
	add := func(ops ...[]byte) { f.Add(slices.Concat(ops...)) }
	// TestWordAccessMatchesBytes's shapes: aligned, unaligned and
	// line-straddling words, then two fork levels writing over the levels
	// below.
	add(storeOp(opWriteUint64, 0, 0x10, 0, 0xDEADBEEFCAFEF00D), storeOp(opWriteUint64, 0, 0x3f, 0, 7),
		storeOp(opWriteUint64, 0, 0x45, 0, 9), storeOp(opFork, 0, 0, 0, 0),
		storeOp(opWriteUint64, 0, 0x3c, 0, 11), storeOp(opWriteUint64, 1, 0x1f9, 0, 13),
		storeOp(opFork, 0, 0, 0, 0), storeOp(opWriteUint64, 0, 0x10, 0, 15),
		storeOp(opWriteUint64, 4, 0x200, 0, 17), storeOp(opPop, 0, 0, 0, 0),
		storeOp(opWriteUint64, 2, 0x1fc, 0, 19))
	// TestLinesInMatchesSnapshot's shapes: three levels, each writing its
	// own region plus lines of the ones below, then a snapshot written on.
	add(storeOp(opWrite, 0, 0x40, 20, 1), storeOp(opWrite, 0, 0x400, 8, 2), storeOp(opFork, 0, 0, 0, 0),
		storeOp(opWrite, 2, 0x80, 64, 3), storeOp(opWrite, 0, 0x40, 8, 4), storeOp(opFork, 0, 0, 0, 0),
		storeOp(opWrite, 3, 0x1000, 16, 5), storeOp(opWrite, 2, 0x84, 4, 6), storeOp(opSnapshot, 0, 0, 0, 0),
		storeOp(opWriteUint64, 4, 0x1ff8, 0, 8))
	// A write straddling a page, and one spanning three lines.
	add(storeOp(opWrite, 1, 0x1fc, 12, 0x0102030405060708), storeOp(opFork, 0, 0, 0, 0),
		storeOp(opWrite, 1, 0x3f0, 79, 0xA5A5), storeOp(opWriteUint64, 1, 0x1fd, 0, 1))

	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 64*storeOpSize {
			prog = prog[:64*storeOpSize]
		}
		levels := []*Store{NewStore()}
		models := []map[uint64]byte{{}}
		for step := 0; len(prog) >= storeOpSize; step, prog = step+1, prog[storeOpSize:] {
			op := prog[:storeOpSize]
			region := fuzzRegions[int(op[1])%len(fuzzRegions)]
			addr := region + uint64(binary.LittleEndian.Uint16(op[2:]))&0x1fff
			v := binary.LittleEndian.Uint64(op[5:])
			top, model := levels[len(levels)-1], models[len(models)-1]
			writes := top.Writes()
			switch op[0] % numStoreOps {
			case opWrite:
				data := fuzzData(v, 1+int(op[4])%80)
				top.Write(addr, data)
				for i, b := range data {
					model[addr+uint64(i)] = b
				}
			case opWriteUint64:
				top.WriteUint64(addr, v)
				for i := range 8 {
					model[addr+uint64(i)] = byte(v >> (8 * i))
				}
			case opFork:
				if len(levels) < 3 {
					levels = append(levels, top.Fork())
					models = append(models, maps.Clone(model))
				}
			case opSnapshot:
				levels, models = []*Store{top.Snapshot()}, []map[uint64]byte{model}
			case opPop:
				if len(levels) > 1 {
					levels, models = levels[:len(levels)-1], models[:len(models)-1]
				}
			}
			if code := op[0] % numStoreOps; code == opWrite || code == opWriteUint64 {
				if got := top.Writes(); got != writes+1 {
					t.Fatalf("op %d: a write took the write count from %d to %d", step, writes, got)
				}
			}
			lo := addr ^ (v & 0xfff)
			probe := [][2]uint64{{0, ^uint64(0)}, {region, region + 0x4000}, {lo, lo + (v>>16)&0x3fff}, {addr, addr + 1}}
			for i, s := range levels {
				checkModel(t, step, i, s, models[i], addr, probe)
			}
		}
	})
}

// checkModel compares store s (level i of the chain) with its model.
func checkModel(t *testing.T, step, level int, s *Store, model map[uint64]byte, addr uint64, probe [][2]uint64) {
	t.Helper()
	var lines []uint64
	for a := range model {
		lines = append(lines, isa.LineAddr(a))
	}
	slices.Sort(lines)
	lines = slices.Compact(lines)
	modelLine := func(line uint64) (out [isa.LineSize]byte) {
		for i := range out {
			out[i] = model[line+uint64(i)]
		}
		return out
	}
	modelWord := func(a uint64) uint64 {
		var w [8]byte
		for i := range w {
			w[i] = model[a+uint64(i)]
		}
		return binary.LittleEndian.Uint64(w[:])
	}
	for _, line := range lines {
		want := modelLine(line)
		if got := s.LineView(line); got != want {
			t.Fatalf("op %d, level %d: LineView(%#x) = %x, model %x", step, level, line, got, want)
		}
		if got := s.Read(line, isa.LineSize); !bytes.Equal(got, want[:]) {
			t.Fatalf("op %d, level %d: Read(%#x) = %x, model %x", step, level, line, got, want)
		}
		for w := line; w < line+isa.LineSize; w += 8 {
			if got, want := s.ReadUint64(w), modelWord(w); got != want {
				t.Fatalf("op %d, level %d: ReadUint64(%#x) = %#x, model %#x", step, level, w, got, want)
			}
		}
	}
	for _, a := range []uint64{addr, addr + 3, isa.LineAddr(addr) + isa.LineSize - 4, (addr &^ (1<<pageShift - 1)) - 5} {
		if got, want := s.ReadUint64(a), modelWord(a); got != want {
			t.Fatalf("op %d, level %d: ReadUint64(%#x) = %#x, model %#x", step, level, a, got, want)
		}
		want := make([]byte, 2*isa.LineSize+3)
		for i := range want {
			want[i] = model[a+uint64(i)]
		}
		if got := s.Read(a, len(want)); !bytes.Equal(got, want) {
			t.Fatalf("op %d, level %d: Read(%#x, %d) = %x, model %x", step, level, a, len(want), got, want)
		}
	}
	for _, r := range probe {
		var want []uint64
		for _, line := range lines {
			if line >= r[0] && line < r[1] {
				want = append(want, line)
			}
		}
		if got := s.LinesIn(r[0], r[1]); !slices.Equal(got, want) {
			t.Fatalf("op %d, level %d: LinesIn(%#x, %#x) = %#x, model %#x", step, level, r[0], r[1], got, want)
		}
	}
	if got := s.Blocks(); got != len(lines) {
		t.Fatalf("op %d, level %d: Blocks() = %d, model holds %d lines", step, level, got, len(lines))
	}
	var want bytes.Buffer
	want.Write(storeMagic[:])
	want.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(lines))))
	for _, line := range lines {
		want.Write(binary.LittleEndian.AppendUint64(nil, line))
		l := modelLine(line)
		want.Write(l[:])
	}
	var got bytes.Buffer
	if err := s.Serialize(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("op %d, level %d: Serialize differs from the model's %d lines", step, level, len(lines))
	}
}
