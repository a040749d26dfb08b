package nvm

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/stats"
)

func TestStoreReadWrite(t *testing.T) {
	s := NewStore()
	// Unwritten memory reads as zero.
	if got := s.Read(0x1000, 16); !bytes.Equal(got, make([]byte, 16)) {
		t.Fatalf("fresh read not zero: %x", got)
	}
	data := []byte("hello, persistent world!")
	s.Write(0x1000, data)
	if got := s.Read(0x1000, len(data)); !bytes.Equal(got, data) {
		t.Fatalf("roundtrip: %q", got)
	}
	// Cross-line write.
	s.Write(0x103c, data)
	if got := s.Read(0x103c, len(data)); !bytes.Equal(got, data) {
		t.Fatalf("cross-line roundtrip: %q", got)
	}
}

func TestStoreUint64(t *testing.T) {
	s := NewStore()
	s.WriteUint64(0x2008, 0xDEADBEEFCAFEF00D)
	if got := s.ReadUint64(0x2008); got != 0xDEADBEEFCAFEF00D {
		t.Fatalf("got %#x", got)
	}
	// Little-endian byte order.
	if b := s.Read(0x2008, 1)[0]; b != 0x0D {
		t.Fatalf("first byte %#x", b)
	}
}

// TestWordAccessMatchesBytes: ReadUint64 and WriteUint64 agree with the
// byte path (Read, Write of the little-endian bytes) at aligned addresses
// and at unaligned ones that straddle a line, on a flat store and through
// a two-level fork chain, where a word write copies its line on write and
// leaves the levels below untouched. Every word write counts as a Write,
// so a fork taken before it panics on its next access.
func TestWordAccessMatchesBytes(t *testing.T) {
	le := func(v uint64) []byte {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		return b[:]
	}
	// addrs mixes aligned words with unaligned ones, some straddling a line.
	addrs := func(rng *rand.Rand, region uint64) []uint64 {
		var out []uint64
		for i := 0; i < 64; i++ {
			line := region + uint64(rng.Intn(32))*isa.LineSize
			switch i % 3 {
			case 0:
				out = append(out, line+uint64(rng.Intn(8))*8)
			case 1:
				out = append(out, line+isa.LineSize-1-uint64(rng.Intn(7))) // straddles
			default:
				out = append(out, line+uint64(rng.Intn(isa.LineSize-8)))
			}
		}
		return out
	}
	// check compares the word store against the byte store over every
	// address either may hold, through both read paths.
	check := func(name string, words, bytesStore *Store, probe []uint64) {
		t.Helper()
		for _, a := range probe {
			w, b := words.ReadUint64(a), bytesStore.ReadUint64(a)
			if w != b || !bytes.Equal(words.Read(a, 8), le(w)) || !bytes.Equal(bytesStore.Read(a, 8), le(b)) {
				t.Fatalf("%s: at %#x words read %#x (bytes %x), bytes read %#x (bytes %x)",
					name, a, w, words.Read(a, 8), b, bytesStore.Read(a, 8))
			}
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		words, byteWise := NewStore(), NewStore()
		var probe []uint64
		write := func(ws, bs *Store, region uint64) {
			for _, a := range addrs(rng, region) {
				v := rng.Uint64()
				ws.WriteUint64(a, v)
				bs.Write(a, le(v))
				probe = append(probe, a, a&^7, isa.LineAddr(a)+isa.LineSize)
			}
		}
		write(words, byteWise, 0x10000)
		check("flat", words, byteWise, probe)

		// Two fork levels over the flat stores; each writes its own region
		// and over the levels below.
		flat := words.Snapshot()
		flatProbe := append([]uint64(nil), probe...)
		mid, midB := words.Fork(), byteWise.Fork()
		write(mid, midB, 0x10000)
		write(mid, midB, 0x20000)
		midSnap := mid.Snapshot()
		midProbe := append([]uint64(nil), probe...)
		top, topB := mid.Fork(), midB.Fork()
		write(top, topB, 0x10000)
		write(top, topB, 0x20000)
		write(top, topB, 0x30000)
		check("fork chain", top, topB, probe)
		check("middle level", mid, midB, probe)
		check("base level", words, byteWise, probe)
		for _, a := range flatProbe {
			if got, want := words.ReadUint64(a&^7), flat.ReadUint64(a&^7); got != want {
				t.Fatalf("seed %d: a fork's word write changed the base at %#x: %#x, was %#x", seed, a&^7, got, want)
			}
		}
		for _, a := range midProbe {
			if got, want := mid.ReadUint64(a&^7), midSnap.ReadUint64(a&^7); got != want {
				t.Fatalf("seed %d: a fork's word write changed its base fork at %#x: %#x, was %#x", seed, a&^7, got, want)
			}
		}
	}

	// A word write is a Write: it bumps the count and ends its forks' life.
	for _, addr := range []uint64{0x4000, 0x403c} { // aligned, straddling
		s := NewStore()
		s.WriteUint64(0x4000, 1)
		f := s.Fork()
		n := s.Writes()
		s.WriteUint64(addr, 2)
		if s.Writes() != n+1 {
			t.Fatalf("WriteUint64(%#x) took the write count from %d to %d, want %d", addr, n, s.Writes(), n+1)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a fork read after its base's WriteUint64(%#x) did not panic", addr)
				}
			}()
			f.ReadUint64(0x4000)
		}()
	}
}

func TestStoreQuickRoundtrip(t *testing.T) {
	s := NewStore()
	prop := func(off uint16, val uint64) bool {
		addr := 0x5000 + uint64(off)
		s.WriteUint64(addr, val)
		return s.ReadUint64(addr) == val
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	s := NewStore()
	s.WriteUint64(0x100, 1)
	snap := s.Snapshot()
	s.WriteUint64(0x100, 2)
	if snap.ReadUint64(0x100) != 1 {
		t.Fatal("snapshot mutated by later write")
	}
	snap.WriteUint64(0x100, 3)
	if s.ReadUint64(0x100) != 2 {
		t.Fatal("original mutated by snapshot write")
	}
}

// bytesPerOp returns the heap bytes one call of f allocates, averaged
// over n calls.
func bytesPerOp(n int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// TestSmallStoresAllocateInProportion pins the slab sizing: a three-line
// snapshot (a litmus crash image) and a fork that writes three lines must
// allocate in proportion to their lines, well under one full slab.
func TestSmallStoresAllocateInProportion(t *testing.T) {
	const fullSlab = slabBlocks * isa.LineSize
	s := NewStore()
	for i := uint64(0); i < 3; i++ {
		s.WriteUint64(0x1000+i*isa.LineSize, i+1)
	}
	if got := bytesPerOp(100, func() { s.Snapshot() }); got > fullSlab/8 {
		t.Errorf("3-line Snapshot allocates %d bytes/op, want well under one %d-byte slab", got, fullSlab)
	}
	if got := bytesPerOp(100, func() {
		f := s.Fork()
		for i := uint64(0); i < 3; i++ {
			f.WriteUint64(0x9000+i*isa.LineSize, i)
		}
	}); got > fullSlab/8 {
		t.Errorf("3-line fork write allocates %d bytes/op, want well under one %d-byte slab", got, fullSlab)
	}
	// A growing store still ends up carving full slabs.
	big := NewStore()
	for i := uint64(0); i <= 4*slabBlocks; i++ {
		big.WriteUint64(i*isa.LineSize, i)
	}
	if got := cap(big.slab); got != slabBlocks-1 {
		t.Errorf("%d lines leave %d free slab blocks, want a fresh %d-block slab minus one", 4*slabBlocks+1, got, slabBlocks)
	}
}

// TestAdoptInstallsBlocksUncopied: Adopt's store holds the very blocks
// it is given, in a directory and page slab sized exactly, reads them
// like a store that wrote them, and refuses lines out of ascending order.
func TestAdoptInstallsBlocksUncopied(t *testing.T) {
	addrs := []uint64{0x1000, 0x1040, 0x11c0, 0x1200, 0x9000}
	blocks := make([][isa.LineSize]byte, len(addrs))
	want := NewStore()
	for i, a := range addrs {
		binary.LittleEndian.PutUint64(blocks[i][8:], uint64(i+1))
		want.Write(a, blocks[i][:])
	}
	each := func(put func(uint64, *[isa.LineSize]byte)) {
		for i, a := range addrs {
			put(a, &blocks[i])
		}
	}
	s := Adopt(each)
	for i, a := range addrs {
		if s.own(a) != &blocks[i] {
			t.Errorf("line %#x was copied", a)
		}
	}
	// Three pages: 0x1000-0x11c0, 0x1200 and 0x9000.
	if len(s.pslab) != 0 || len(s.dir.slots) != dirSlotsFor(3) || s.dir.used != 3 {
		t.Errorf("%d pages, %d spare, in %d directory slots; want 3, 0, %d", s.dir.used, len(s.pslab), len(s.dir.slots), dirSlotsFor(3))
	}
	var got, exp bytes.Buffer
	if err := s.Serialize(&got); err != nil {
		t.Fatal(err)
	}
	if err := want.Serialize(&exp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), exp.Bytes()) || s.Blocks() != len(addrs) {
		t.Fatalf("adopted store serializes unlike the written one (%d blocks)", s.Blocks())
	}
	slices.Reverse(addrs)
	defer func() {
		if recover() == nil {
			t.Fatal("Adopt took lines in descending order")
		}
	}()
	Adopt(each)
}

func TestLinesIn(t *testing.T) {
	s := NewStore()
	s.WriteUint64(0x1000, 1)
	s.WriteUint64(0x1040, 1)
	s.WriteUint64(0x2000, 1)
	lines := s.LinesIn(0x1000, 0x2000)
	if len(lines) != 2 || lines[0] != 0x1000 || lines[1] != 0x1040 {
		t.Fatalf("lines: %#x", lines)
	}
}

// TestForkPanicsAfterBaseWrite: once any level below a fork is written,
// every access through the fork panics instead of mixing old and new base
// state; a Snapshot taken before the write stays usable.
func TestForkPanicsAfterBaseWrite(t *testing.T) {
	accesses := map[string]func(*Store){
		"Read":      func(s *Store) { s.Read(0x1000, 8) },
		"LineView":  func(s *Store) { s.LineView(0x1000) },
		"Write":     func(s *Store) { s.WriteUint64(0x9000, 1) },
		"LinesIn":   func(s *Store) { s.LinesIn(0, 0x10000) },
		"Snapshot":  func(s *Store) { s.Snapshot() },
		"Blocks":    func(s *Store) { s.Blocks() },
		"Serialize": func(s *Store) { _ = s.Serialize(io.Discard) },
	}
	for _, level := range []string{"root", "middle"} {
		for name, access := range accesses {
			root := NewStore()
			root.WriteUint64(0x1000, 1)
			mid := root.Fork()
			mid.WriteUint64(0x2000, 2)
			top := mid.Fork()
			top.WriteUint64(0x3000, 3)
			snap := top.Snapshot()
			access(top) // fine before the write
			if level == "root" {
				root.WriteUint64(0x1000, 4)
			} else {
				mid.WriteUint64(0x1000, 4)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s through a fork after a write to its %s level did not panic", name, level)
					}
				}()
				access(top)
			}()
			if got := snap.ReadUint64(0x1000); got != 1 {
				t.Errorf("snapshot reads %d after a write to its %s level, want 1", got, level)
			}
		}
	}
	// The written base itself, and a fork taken after the write, are fine.
	root := NewStore()
	_ = root.Fork()
	root.WriteUint64(0x1000, 1)
	if root.ReadUint64(0x1000) != 1 || root.Fork().ReadUint64(0x1000) != 1 {
		t.Fatal("a written base or a fresh fork of it misreads")
	}
}

// TestConcurrentForkReads pins the documented concurrency contract: several
// goroutines each fork one shared base, read every base line through their
// fork (and the base directly), and write their own lines and over base
// lines, all at once. Every read must see the base's contents, and under
// -race any read path that writes shared store state is reported.
func TestConcurrentForkReads(t *testing.T) {
	base := NewStore()
	var lines []uint64
	for i := uint64(0); i < 600; i++ {
		// Lines spread over many pages of the heap and the log windows.
		a := isa.HeapBase + i*3*isa.LineSize
		if i%4 == 0 {
			a = isa.LogBase + i*5*isa.LineSize
		}
		base.WriteUint64(a+8*(i%8), i+1)
		lines = append(lines, a)
	}
	want := make([][isa.LineSize]byte, len(lines))
	for i, a := range lines {
		want[i] = base.LineView(a)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f := base.Fork()
			own, _ := isa.VolatileWindow(g)
			for round := uint64(0); round < 4; round++ {
				for i, a := range lines {
					if f.LineView(a) != want[i] && a != lines[g] {
						t.Errorf("goroutine %d: fork reads line %#x wrong", g, a)
						return
					}
					if base.LineView(a) != want[i] || base.ReadUint64(a+8*uint64(i%8)) != uint64(i+1) {
						t.Errorf("goroutine %d: base reads line %#x wrong", g, a)
						return
					}
				}
				f.WriteUint64(own+round*isa.LineSize, uint64(g))
				f.WriteUint64(lines[g], uint64(g)<<32|round)
				if n := len(f.LinesIn(isa.HeapBase, isa.VolatileBase)); n != len(lines) {
					t.Errorf("goroutine %d: fork lists %d persistent lines, want %d", g, n, len(lines))
				}
				if n := len(base.LinesIn(0, ^uint64(0))); n != len(lines) {
					t.Errorf("goroutine %d: base lists %d lines, want %d", g, n, len(lines))
				}
			}
			if got := f.Snapshot().Blocks(); got != len(lines)+4 {
				t.Errorf("goroutine %d: fork holds %d lines, want %d", g, got, len(lines)+4)
			}
		}(g)
	}
	wg.Wait()
	if base.Blocks() != len(lines) || base.LineView(lines[0]) != want[0] {
		t.Fatal("the forks' writes changed the base")
	}
}

// TestLinesInMatchesSnapshot: LinesIn over a 2- or 3-level fork chain with
// seeded random writes (lines shadowed by upper levels, lines spread over
// distinct regions) lists exactly the lines its flat Snapshot lists, and
// exactly the lines written, for random ranges and for ranges that start
// or end at each level's bounds. The snapshot allocates exactly its line
// count, and LineView reads the same lines through both.
func TestLinesInMatchesSnapshot(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		written := map[uint64]bool{}
		var levels []*Store
		depth := 2 + rng.Intn(2)
		s := NewStore()
		for {
			// Each level writes into its own region plus the lower ones'.
			region := uint64(len(levels)+1) * 0x100000
			for i := 0; i < 1+rng.Intn(64); i++ {
				a := region + uint64(rng.Intn(256))*isa.LineSize
				if len(levels) > 0 && rng.Intn(3) == 0 {
					a = uint64(rng.Intn(len(levels))+1)*0x100000 + uint64(rng.Intn(256))*isa.LineSize
				}
				s.WriteUint64(a+uint64(rng.Intn(8))*8, rng.Uint64())
				written[isa.LineAddr(a)] = true
			}
			levels = append(levels, s)
			if len(levels) == depth {
				break
			}
			s = s.Fork()
		}
		snap := s.Snapshot()

		var ranges [][2]uint64
		for _, l := range levels {
			for _, b := range []uint64{l.lo, l.hi} {
				ranges = append(ranges, [2]uint64{b, b + isa.LineSize}, [2]uint64{b - isa.LineSize, b},
					[2]uint64{0, b}, [2]uint64{0, b + 1}, [2]uint64{b, ^uint64(0)}, [2]uint64{b + 1, ^uint64(0)})
			}
		}
		for i := 0; i < 20; i++ {
			lo := uint64(rng.Intn(0x400000))
			ranges = append(ranges, [2]uint64{lo, lo + uint64(rng.Intn(0x200000))})
		}
		for _, r := range ranges {
			var want []uint64
			for a := range written {
				if a >= r[0] && a < r[1] {
					want = append(want, a)
				}
			}
			slices.Sort(want)
			got, flat := s.LinesIn(r[0], r[1]), snap.LinesIn(r[0], r[1])
			if !slices.Equal(got, want) || !slices.Equal(flat, want) {
				t.Fatalf("seed %d, %d levels, LinesIn(%#x, %#x): chain %#x, snapshot %#x, written %#x",
					seed, len(levels), r[0], r[1], got, flat, want)
			}
		}
		if s.Blocks() != len(written) || snap.Blocks() != len(written) {
			t.Fatalf("seed %d: Blocks chain %d, snapshot %d, written %d", seed, s.Blocks(), snap.Blocks(), len(written))
		}
		if cap(snap.slab) != 0 {
			t.Fatalf("seed %d: a snapshot of %d lines left %d slab blocks unused", seed, len(written), cap(snap.slab))
		}
		for a := range written {
			if s.LineView(a) != snap.LineView(a) {
				t.Fatalf("seed %d: LineView(%#x) differs between the chain and its snapshot", seed, a)
			}
		}
		if s.LineView(0x7fff000) != [isa.LineSize]byte{} {
			t.Fatalf("seed %d: an unwritten line does not read as zero", seed)
		}
		var a, b bytes.Buffer
		if err := s.Serialize(&a); err != nil {
			t.Fatal(err)
		}
		if err := snap.Serialize(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("seed %d: a fork chain and its snapshot serialize differently", seed)
		}
	}
}

// ---------------------------------------------------------------- device

func newDev(kind config.MemKind) (*Device, *stats.Mem) {
	st := &stats.Mem{}
	cfg := config.Default().WithMemKind(kind).Mem
	return NewDevice(cfg, st), st
}

func TestDeviceRowBufferHit(t *testing.T) {
	d, st := newDev(config.NVMFast)
	a := uint64(isa.HeapBase)
	first := d.Access(0, a, false, stats.WriteData)
	// Second access to the same line at a later time: row hit, cheaper.
	second := d.Access(first, a, false, stats.WriteData) - first
	if second >= first {
		t.Fatalf("row hit (%d) not faster than activate (%d)", second, first)
	}
	if st.RowBufferHits != 1 || st.RowBufferMiss != 1 {
		t.Fatalf("hit/miss counts: %d/%d", st.RowBufferHits, st.RowBufferMiss)
	}
}

func TestDeviceNVMWriteSlowerThanRead(t *testing.T) {
	d, _ := newDev(config.NVMFast)
	rd := d.Access(0, isa.HeapBase, false, stats.WriteData)
	d2, _ := newDev(config.NVMFast)
	wr := d2.Access(0, isa.HeapBase, true, stats.WriteData)
	if wr <= rd {
		t.Fatalf("NVM write latency (%d) not greater than read (%d)", wr, rd)
	}
}

func TestDeviceSlowNVMWriteSlower(t *testing.T) {
	fast, _ := newDev(config.NVMFast)
	slow, _ := newDev(config.NVMSlow)
	wf := fast.Access(0, isa.HeapBase, true, stats.WriteData)
	ws := slow.Access(0, isa.HeapBase, true, stats.WriteData)
	if ws <= wf {
		t.Fatalf("slow NVM write (%d) not slower than fast (%d)", ws, wf)
	}
	// Reads are unaffected (§7.1 keeps 50ns reads).
	rf := fast.Access(1_000_000, isa.HeapBase+1<<20, false, stats.WriteData) - 1_000_000
	rs := slow.Access(1_000_000, isa.HeapBase+1<<20, false, stats.WriteData) - 1_000_000
	if rf != rs {
		t.Fatalf("slow NVM changed read latency: %d vs %d", rs, rf)
	}
}

func TestDeviceDRAMFasterThanNVM(t *testing.T) {
	dram, _ := newDev(config.DRAM)
	nvmf, _ := newDev(config.NVMFast)
	wd := dram.Access(0, isa.HeapBase, true, stats.WriteData)
	wn := nvmf.Access(0, isa.HeapBase, true, stats.WriteData)
	if wd >= wn {
		t.Fatalf("DRAM write (%d) not faster than NVM (%d)", wd, wn)
	}
}

func TestDeviceBankParallelism(t *testing.T) {
	d, _ := newDev(config.NVMFast)
	// Writes to many distinct rows land on different banks and overlap;
	// the makespan must be far below the serialized sum.
	n := 16
	var last uint64
	single := d.Access(0, isa.HeapBase, true, stats.WriteData)
	d2, _ := newDev(config.NVMFast)
	for i := 0; i < n; i++ {
		done := d2.Access(0, isa.HeapBase+uint64(i)*4096, true, stats.WriteData)
		if done > last {
			last = done
		}
	}
	if last > single*4 {
		t.Fatalf("16 spread writes took %d; single takes %d — no bank parallelism?", last, single)
	}
}

func TestDeviceBankSpreadForAlignedRegions(t *testing.T) {
	d, _ := newDev(config.NVMFast)
	// Per-thread regions are large power-of-two strides; their hot rows
	// must not all collapse onto one bank.
	banks := make(map[int]bool)
	for thread := 0; thread < 8; thread++ {
		base, _ := isa.LogWindow(thread)
		b, _ := d.bankAndRow(base)
		banks[b] = true
	}
	if len(banks) < 4 {
		t.Fatalf("8 thread log bases map to only %d banks", len(banks))
	}
}

// TestSerializeRoundtrip pins Serialize's bytes for a three-line store
// written out of address order: the magic, the line count, then each line
// in ascending address order as its 8-byte little-endian address and its
// 64 data bytes. Serializing twice gives the same bytes.
func TestSerializeRoundtrip(t *testing.T) {
	s := NewStore()
	s.WriteUint64(isa.HeapBase+0x40, 0xDEAD_BEEF)
	s.WriteUint64(isa.HeapBase, 7)
	s.Write(isa.LogBase+128, []byte{1, 2, 3})

	var want []byte
	want = append(want, "NVMIMG\x00\x01"...)
	want = binary.LittleEndian.AppendUint64(want, 3)
	line := func(addr uint64, data ...byte) {
		want = binary.LittleEndian.AppendUint64(want, addr)
		want = append(want, data...)
		want = append(want, make([]byte, isa.LineSize-len(data))...)
	}
	line(isa.HeapBase, 7)
	line(isa.HeapBase+0x40, 0xEF, 0xBE, 0xAD, 0xDE)
	line(isa.LogBase+128, 1, 2, 3)

	for i := 0; i < 2; i++ {
		var buf bytes.Buffer
		if err := s.Serialize(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("serialization %d:\n got %x\nwant %x", i+1, buf.Bytes(), want)
		}
	}
}
