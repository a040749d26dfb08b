package memctrl

import (
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/logfmt"
	"repro/internal/nvm"
	"repro/internal/stats"
)

func newTestController() (*Controller, *stats.Mem) {
	cfg := config.Default().Mem
	st := &stats.Mem{}
	store := nvm.NewStore()
	dev := nvm.NewDevice(cfg, st)
	return New(cfg, dev, store, st), st
}

// TestWPQDrainThroughput measures how many line writes per kilocycle the
// WPQ sustains; the scheme comparisons depend on this being comfortably
// above the workloads' write rates.
func TestWPQDrainThroughput(t *testing.T) {
	c, _ := newTestController()
	var accepted int
	addr := uint64(isa.HeapBase)
	var data [isa.LineSize]byte
	cycles := uint64(200_000)
	for now := uint64(1); now <= cycles; now++ {
		c.Tick(now)
		if c.WriteLine(now, addr, data, stats.WriteData) {
			accepted++
			addr += isa.LineSize
		}
	}
	perKilo := float64(accepted) / float64(cycles) * 1000
	t.Logf("sustained %.1f writes/kcycle (accepted %d)", perKilo, accepted)
	if perKilo < 20 {
		t.Errorf("WPQ drain too slow: %.1f writes/kcycle", perKilo)
	}
}

// TestWriteCoalescing verifies that rewriting a pending line does not
// create a second WPQ entry.
func TestWriteCoalescing(t *testing.T) {
	c, st := newTestController()
	var data [isa.LineSize]byte
	if !c.WriteLine(1, isa.HeapBase, data, stats.WriteData) {
		t.Fatal("first write refused")
	}
	data[0] = 7
	if !c.WriteLine(2, isa.HeapBase, data, stats.WriteData) {
		t.Fatal("second write refused")
	}
	if c.WPQLen() != 1 {
		t.Fatalf("WPQLen = %d, want 1 (coalesced)", c.WPQLen())
	}
	if st.WPQCoalesced != 1 {
		t.Fatalf("coalesced count = %d, want 1", st.WPQCoalesced)
	}
	// Drain and check the data landed.
	for now := uint64(3); now < 10_000; now++ {
		c.ForceDrain(true)
		c.Tick(now)
		if c.WPQEmpty() {
			break
		}
	}
	if !c.WPQEmpty() {
		t.Fatal("WPQ did not drain")
	}
	if got := c.Store().Read(isa.HeapBase, 1)[0]; got != 7 {
		t.Fatalf("store byte = %d, want 7", got)
	}
}

// ------------------------------------------------------------------ LPQ

func mkEntry(core int, tx uint32, logTo uint64, last bool) LogEntry {
	e := logfmt.ProteusEntry{From: isa.HeapBase, Tx: tx, Seq: uint64(tx)}
	e.Last = last
	line := logfmt.EncodeProteus(e)
	return LogEntry{Core: core, Tx: tx, LogTo: logTo, Data: line, Last: last}
}

func TestLPQFlashClear(t *testing.T) {
	c, st := newTestController()
	base, _ := isa.LogWindow(0)
	for i := 0; i < 5; i++ {
		c.LogFlush(10, mkEntry(0, 1, base+uint64(i)*64, false))
	}
	if c.LPQLen() != 5 {
		t.Fatalf("LPQ len %d", c.LPQLen())
	}
	if !c.MarkCommit(20, 0, 1, base+4*64) {
		t.Fatal("mark commit failed")
	}
	c.FlashClear(0, 1)
	// All but the marked last entry are dropped without NVM writes.
	if c.LPQLen() != 1 {
		t.Fatalf("LPQ after flash clear: %d", c.LPQLen())
	}
	if st.LPQDropped != 4 {
		t.Fatalf("dropped %d", st.LPQDropped)
	}
	if st.Writes[stats.WriteLog] != 0 {
		t.Fatalf("log writes reached NVM: %d", st.Writes[stats.WriteLog])
	}
	// The next transaction's first entry discards the held last entry.
	c.LogFlush(30, mkEntry(0, 2, base+5*64, false))
	if c.LPQLen() != 1 {
		t.Fatalf("LPQ after next txn's entry: %d", c.LPQLen())
	}
	if st.LPQDropped != 5 {
		t.Fatalf("dropped after discard: %d", st.LPQDropped)
	}
}

func TestLPQOverflowDrainsToNVM(t *testing.T) {
	c, st := newTestController()
	base, _ := isa.LogWindow(0)
	n := config.Default().Mem.LPQ
	for i := 0; i <= n; i++ { // one beyond capacity
		c.LogFlush(uint64(10+i), mkEntry(0, 1, base+uint64(i)*64, false))
	}
	if st.LPQDrained != 1 {
		t.Fatalf("drained %d, want 1 (the evicted oldest)", st.LPQDrained)
	}
	// The eviction goes through the WPQ; drain it to NVM.
	c.ForceDrain(true)
	for now := uint64(1000); now < 200_000; now++ {
		c.Tick(now)
		if c.WPQEmpty() {
			break
		}
	}
	if st.Writes[stats.WriteLog] != 1 {
		t.Fatalf("NVM log writes %d", st.Writes[stats.WriteLog])
	}
	// The drained entry's bytes must be in the store (it is durable NVM
	// content for recovery).
	if _, state := logfmt.DecodeProteusChecked(c.Store().Read(base, 64)); state != logfmt.LineValid {
		t.Fatal("drained entry not decodable from NVM")
	}
}

func TestMarkCommitOnDrainedEntry(t *testing.T) {
	c, _ := newTestController()
	base, _ := isa.LogWindow(0)
	// Write the entry straight to NVM (as if drained long ago).
	line := logfmt.EncodeProteus(logfmt.ProteusEntry{From: isa.HeapBase, Tx: 3, Seq: 1})
	c.Store().Write(base, line[:])
	if !c.MarkCommit(10, 0, 3, base) {
		t.Fatal("mark refused")
	}
	// Drain the WPQ and check the mark landed.
	c.ForceDrain(true)
	for now := uint64(11); now < 100_000; now++ {
		c.Tick(now)
		if c.WPQEmpty() {
			break
		}
	}
	e, state := logfmt.DecodeProteusChecked(c.Store().Read(base, 64))
	if state != logfmt.LineValid || !e.Last {
		t.Fatalf("mark not durable: state=%v last=%v", state, e.Last)
	}
}

func TestDrainLogWritesEverything(t *testing.T) {
	c, st := newTestController()
	base, _ := isa.LogWindow(0)
	for i := 0; i < 3; i++ {
		c.LogFlush(10, mkEntry(0, 7, base+uint64(i)*64, false))
	}
	c.DrainLog(20, 0, 7)
	if c.LPQLen() != 0 {
		t.Fatalf("LPQ not drained: %d", c.LPQLen())
	}
	if st.LPQDrained != 3 || st.Writes[stats.WriteLog] != 3 {
		t.Fatalf("drained %d, NVM log writes %d", st.LPQDrained, st.Writes[stats.WriteLog])
	}
}

func TestCrashImageADR(t *testing.T) {
	c, _ := newTestController()
	var data [isa.LineSize]byte
	data[0] = 0x5A
	if !c.WriteLine(10, isa.HeapBase, data, stats.WriteData) {
		t.Fatal("write refused")
	}
	base, _ := isa.LogWindow(0)
	c.LogFlush(10, mkEntry(0, 1, base, false))

	adr := c.CrashImage(true)
	if adr.Read(isa.HeapBase, 1)[0] != 0x5A {
		t.Fatal("ADR image missing WPQ write")
	}
	if _, state := logfmt.DecodeProteusChecked(adr.Read(base, 64)); state != logfmt.LineValid {
		t.Fatal("ADR image missing LPQ entry")
	}
	noADR := c.CrashImage(false)
	if noADR.Read(isa.HeapBase, 1)[0] != 0 {
		t.Fatal("non-ADR image contains undrained WPQ write")
	}
}

// TestCrashImageAllocatesPerPendingLine: a crash image forks the store,
// so taking one over a ~2,000-line store allocates for the few pending
// queue lines it holds, not for the store.
func TestCrashImageAllocatesPerPendingLine(t *testing.T) {
	c, _ := newTestController()
	var data [isa.LineSize]byte
	for i := uint64(0); i < 2000; i++ {
		c.Store().Write(isa.HeapBase+i*isa.LineSize, data[:8])
	}
	data[0] = 0x5A
	for i := uint64(0); i < 3; i++ {
		if !c.WriteLine(10, isa.HeapBase+i*4096, data, stats.WriteData) {
			t.Fatal("write refused")
		}
	}
	base, _ := isa.LogWindow(0)
	c.LogFlush(10, mkEntry(0, 1, base, false))

	var before, after runtime.MemStats
	const n = 100
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if img := c.CrashImage(true); img.Read(isa.HeapBase, 1)[0] != 0x5A {
			t.Fatal("crash image missing a pending WPQ line")
		}
	}
	runtime.ReadMemStats(&after)
	// Four pending lines fit one minimum-size slab (16 lines); a copy of
	// the store would take 2,000.
	if got := (after.TotalAlloc - before.TotalAlloc) / n; got > 64*isa.LineSize {
		t.Fatalf("crash image of a 2,000-line store with 4 pending lines allocates %d bytes, want at most %d", got, 64*isa.LineSize)
	}
}

func TestSameAddressWriteOrdering(t *testing.T) {
	c, _ := newTestController()
	var v1, v2 [isa.LineSize]byte
	v1[0], v2[0] = 1, 2
	if !c.WriteLine(10, isa.HeapBase, v1, stats.WriteData) {
		t.Fatal("w1 refused")
	}
	// Force-issue the first, then write the same line again.
	c.ForceDrain(true)
	c.Tick(11)
	c.ForceDrain(false)
	if !c.WriteLine(12, isa.HeapBase, v2, stats.WriteData) {
		t.Fatal("w2 refused")
	}
	c.ForceDrain(true)
	for now := uint64(13); now < 100_000; now++ {
		c.Tick(now)
		if c.WPQEmpty() {
			break
		}
	}
	if got := c.Store().Read(isa.HeapBase, 1)[0]; got != 2 {
		t.Fatalf("final NVM value %d, want 2 (newest)", got)
	}
}

// TestForwardingReadsYoungestWrite: while a line has an issued write and
// a newer one queued behind it, reads through the WPQ see the newer value
// — the one NVM ends up holding.
func TestForwardingReadsYoungestWrite(t *testing.T) {
	c, _ := newTestController()
	var v1, v2 [isa.LineSize]byte
	v1[0], v2[0] = 1, 2
	if !c.WriteLine(10, isa.HeapBase, v1, stats.WriteData) {
		t.Fatal("w1 refused")
	}
	c.ForceDrain(true)
	c.Tick(11)
	c.ForceDrain(false)
	if !c.WriteLine(12, isa.HeapBase, v2, stats.WriteData) {
		t.Fatal("w2 refused")
	}
	if c.WPQLen() != 2 {
		t.Fatalf("WPQLen = %d, want 2 (v1 issued, v2 queued behind it)", c.WPQLen())
	}
	if _, got, ok := c.ReadLine(13, isa.HeapBase); !ok || got[0] != 2 {
		t.Errorf("ReadLine forwards %d (ok=%v), want 2 (the younger write)", got[0], ok)
	}
	if got := c.PeekLine(isa.HeapBase); got[0] != 2 {
		t.Errorf("PeekLine forwards %d, want 2 (the younger write)", got[0])
	}
	c.ForceDrain(true)
	for now := uint64(14); now < 100_000 && !c.WPQEmpty(); now++ {
		c.Tick(now)
	}
	if got := c.Store().Read(isa.HeapBase, 1)[0]; got != 2 {
		t.Fatalf("final NVM value %d, want 2", got)
	}
}

func TestAtomTxEndCancelsAndInvalidates(t *testing.T) {
	c, st := newTestController()
	base, _ := isa.LogWindow(0)
	meta := logfmt.EncodePairMeta(logfmt.PairEntry{From: isa.HeapBase, Tx: 4, Len: 64})
	// Two log entries: one will still be pending at tx-end (cancelled),
	// one long drained.
	if _, ok := c.AtomLog(10, 0, 4, base, meta); !ok {
		t.Fatal("atom log refused")
	}
	c.ForceDrain(true)
	for now := uint64(11); now < 100_000; now++ {
		c.Tick(now)
		if c.WPQEmpty() {
			break
		}
	}
	c.ForceDrain(false)
	if _, ok := c.AtomLog(200_000, 0, 4, base+128, meta); !ok {
		t.Fatal("second atom log refused")
	}
	// tx-end with generous tracking: the drained entry is cleared for
	// free; the pending one is cancelled from the WPQ.
	c.AtomTxEnd(200_001, 0, 4, []uint64{base, base + 128}, 32)
	if _, state := logfmt.DecodePairMetaChecked(c.Store().Read(base, 64)); state == logfmt.LineValid {
		t.Fatal("drained entry not invalidated")
	}
	if st.Writes[stats.WriteTruncate] != 0 {
		t.Fatalf("tracked truncation cost %d NVM writes", st.Writes[stats.WriteTruncate])
	}
	// After tx-end nothing in the WPQ may resurrect the entries.
	c.ForceDrain(true)
	for now := uint64(200_002); now < 400_000; now++ {
		c.Tick(now)
		if c.WPQEmpty() {
			break
		}
	}
	if _, state := logfmt.DecodePairMetaChecked(c.Store().Read(base+128, 64)); state == logfmt.LineValid {
		t.Fatal("cancelled entry resurrected in NVM")
	}
}

// TestDrainPolicyConfigurable verifies the WPQ hold-back policy follows
// config.Mem: an aggressive policy drains a lone write promptly, while a
// lazy one holds it far beyond the default age for coalescing.
func TestDrainPolicyConfigurable(t *testing.T) {
	run := func(drainHi, maxAge int) bool {
		cfg := config.Default().Mem
		cfg.DrainHi = drainHi
		cfg.MaxWPQAge = maxAge
		st := &stats.Mem{}
		store := nvm.NewStore()
		dev := nvm.NewDevice(cfg, st)
		c := New(cfg, dev, store, st)
		var data [isa.LineSize]byte
		if !c.WriteLine(1, isa.HeapBase, data, stats.WriteData) {
			t.Fatal("write refused")
		}
		for now := uint64(2); now < 2000; now++ {
			c.Tick(now)
		}
		return c.WPQEmpty()
	}
	if !run(0, 1) {
		t.Error("eager policy (hi=0, age=1) left the write pending")
	}
	if run(127, 100_000) {
		t.Error("lazy policy (hi=127, age=100000) drained a lone young write")
	}
}
