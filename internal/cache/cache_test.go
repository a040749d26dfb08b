package cache

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/memctrl"
	"repro/internal/nvm"
	"repro/internal/stats"
)

func newHier() (*Hierarchy, *memctrl.Controller, *stats.Core, *stats.Mem) {
	return newHierCfg(config.Default())
}

func newHierCfg(cfg config.Config) (*Hierarchy, *memctrl.Controller, *stats.Core, *stats.Mem) {
	ms := &stats.Mem{}
	cs := &stats.Core{}
	store := nvm.NewStore()
	dev := nvm.NewDevice(cfg.Mem, ms)
	mc := memctrl.New(cfg.Mem, dev, store, ms)
	l3 := NewLevel(cfg.L3)
	return NewHierarchy(cfg, l3, mc, cs), mc, cs, ms
}

func TestLoadLatencies(t *testing.T) {
	h, _, cs, _ := newHier()
	addr := uint64(isa.HeapBase)

	// Cold miss goes to memory.
	done1, ok := h.Load(100, addr, 8, nil)
	if !ok {
		t.Fatal("load refused")
	}
	if done1 < 100+42 {
		t.Fatalf("cold miss done at %d, below L3 latency", done1)
	}
	if cs.LoadMisses != 1 {
		t.Fatalf("misses %d", cs.LoadMisses)
	}
	// Now an L1 hit.
	done2, _ := h.Load(10_000, addr, 8, nil)
	if done2 != 10_000+4 {
		t.Fatalf("L1 hit done at %d, want %d", done2, 10_000+4)
	}
	if cs.LoadHitsL1 != 1 {
		t.Fatalf("L1 hits %d", cs.LoadHitsL1)
	}
}

func TestStoreMakesLineDirtyAndClwbFlushes(t *testing.T) {
	h, mc, _, _ := newHier()
	addr := uint64(isa.HeapBase)
	if _, ok := h.Store(100, addr, []byte{0xAB}); !ok {
		t.Fatal("store refused")
	}
	if !h.IsDirty(addr) {
		t.Fatal("line not dirty after store")
	}
	done, wrote, ok := h.Clwb(200, addr)
	if !ok || !wrote {
		t.Fatalf("clwb: ok=%v wrote=%v", ok, wrote)
	}
	if done <= 200 {
		t.Fatal("clwb completed instantly")
	}
	if h.IsDirty(addr) {
		t.Fatal("line still dirty after clwb")
	}
	// Drain the WPQ; the byte must reach memory.
	mc.ForceDrain(true)
	for now := uint64(done); now < done+100_000; now++ {
		mc.Tick(now)
		if mc.WPQEmpty() {
			break
		}
	}
	if got := mc.Store().Read(addr, 1)[0]; got != 0xAB {
		t.Fatalf("memory byte %#x, want 0xAB", got)
	}
}

func TestCleanClwbIsNoWrite(t *testing.T) {
	h, _, _, _ := newHier()
	addr := uint64(isa.HeapBase)
	h.Load(100, addr, 8, nil)
	_, wrote, ok := h.Clwb(200, addr)
	if !ok || wrote {
		t.Fatalf("clean clwb: ok=%v wrote=%v", ok, wrote)
	}
}

// TestClwbFlushesDirtyCopyBelowCleanOne: a dirty line evicted from the L1
// and loaded back leaves a clean L1 copy above its dirty L2 copy. clwb
// must write the L2 data, and the line must be clean everywhere after.
func TestClwbFlushesDirtyCopyBelowCleanOne(t *testing.T) {
	cfg := config.Default()
	h, mc, _, _ := newHierCfg(cfg)
	x := uint64(isa.HeapBase)
	if _, ok := h.Store(100, x, []byte{0xCD}); !ok {
		t.Fatal("store refused")
	}
	// The L1's other ways of x's set: same set index, distinct lines.
	stride := uint64(cfg.L1D.Sets() * isa.LineSize)
	for i := 1; i <= cfg.L1D.Ways; i++ {
		if _, ok := h.Load(uint64(200+i), x+uint64(i)*stride, 8, nil); !ok {
			t.Fatal("load refused")
		}
	}
	if h.l1.lookup(x) != nil {
		t.Fatal("x still in the L1; the set was not filled")
	}
	if w := h.l2.lookup(x); w == nil || !w.dirty {
		t.Fatal("x's L1 eviction left no dirty L2 copy")
	}
	if _, ok := h.Load(300, x, 8, nil); !ok {
		t.Fatal("reload refused")
	}
	if w := h.l1.lookup(x); w == nil || w.dirty {
		t.Fatal("reload left no clean L1 copy")
	}

	done, wrote, ok := h.Clwb(400, x)
	if !ok || !wrote {
		t.Fatalf("clwb of a line dirty in the L2: ok=%v wrote=%v", ok, wrote)
	}
	if h.IsDirty(x) {
		t.Fatal("line still dirty after clwb")
	}
	mc.ForceDrain(true)
	for now := done; now < done+100_000 && !mc.WPQEmpty(); now++ {
		mc.Tick(now)
	}
	if got := mc.Store().Read(x, 1)[0]; got != 0xCD {
		t.Fatalf("memory byte %#x, want 0xCD", got)
	}
}

func TestLoadReturnsStoredData(t *testing.T) {
	h, _, _, _ := newHier()
	addr := uint64(isa.HeapBase + 24)
	h.Store(100, addr, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	buf := make([]byte, 8)
	h.Load(200, addr, 8, buf)
	for i, b := range buf {
		if b != byte(i+1) {
			t.Fatalf("byte %d = %d", i, b)
		}
	}
}

func TestEvictionWritesBack(t *testing.T) {
	h, mc, _, _ := newHier()
	cfg := config.Default()
	// Dirty one line, then blow every level with conflicting fills.
	victim := uint64(isa.HeapBase)
	h.Store(1, victim, []byte{0x77})

	// Lines mapping to the same set in every level, enough to evict
	// through L1, L2 and L3.
	stride := uint64(cfg.L3.SizeBytes) // conservative: same set everywhere
	n := cfg.L3.Ways + cfg.L2.Ways + cfg.L1D.Ways + 2
	for i := 1; i <= n; i++ {
		h.Load(uint64(i)*10_000, victim+uint64(i)*stride, 8, nil)
	}
	// The dirty line must have been written back to the MC (WPQ) or
	// still live in a lower level; read through a fresh hierarchy after
	// draining.
	mc.ForceDrain(true)
	for now := uint64(1_000_000); now < 3_000_000; now++ {
		mc.Tick(now)
		if mc.WPQEmpty() {
			break
		}
	}
	if h.IsDirty(victim) {
		// Still cached somewhere — acceptable; force check via peek.
		var b [1]byte
		h.Peek(victim, 1, b[:])
		if b[0] != 0x77 {
			t.Fatalf("dirty data lost: %#x", b[0])
		}
		return
	}
	if got := mc.Store().Read(victim, 1)[0]; got != 0x77 {
		t.Fatalf("evicted data not in memory: %#x", got)
	}
}

func TestPeekSeesMemoryAndCache(t *testing.T) {
	h, mc, _, _ := newHier()
	addr := uint64(isa.HeapBase)
	mc.Store().WriteUint64(addr, 0x1111)
	var buf [8]byte
	h.Peek(addr, 8, buf[:])
	if buf[0] != 0x11 {
		t.Fatal("peek missed memory value")
	}
	h.Store(100, addr, []byte{0x22})
	h.Peek(addr, 1, buf[:1])
	if buf[0] != 0x22 {
		t.Fatal("peek missed cached store")
	}
}

func TestCrossLineAccesses(t *testing.T) {
	h, _, _, _ := newHier()
	addr := uint64(isa.HeapBase + 60) // spans two lines
	h.Store(100, addr, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	buf := make([]byte, 8)
	h.Load(200, addr, 8, buf)
	for i, b := range buf {
		if b != byte(i+1) {
			t.Fatalf("cross-line byte %d = %d", i, b)
		}
	}
}

// TestReleasedLevelIsFresh drives every level through fills, dirty
// evictions down to memory and clwbs, releases them, and requires the
// levels NewLevel hands back to deep-equal freshly allocated ones: all
// ways zero and no set marked used.
func TestReleasedLevelIsFresh(t *testing.T) {
	// Scaled-down caches keep the reflective comparison cheap under -race.
	cfg := config.Default()
	cfg.L1D.SizeBytes, cfg.L2.SizeBytes, cfg.L3.SizeBytes = 4<<10, 16<<10, 64<<10
	h, mc, _, _ := newHierCfg(cfg)
	mc.ForceDrain(true)
	l1, l2, l3 := h.l1, h.l2, h.l3
	base := uint64(isa.HeapBase)
	stride := uint64(cfg.L3.SizeBytes)
	n := cfg.L3.Ways + cfg.L2.Ways + cfg.L1D.Ways + 2
	now := uint64(1)
	for i := 0; i < n; i++ {
		for _, off := range []uint64{0, 64, 4096} {
			addr := base + off + uint64(i)*stride
			if _, ok := h.Store(now, addr, []byte{byte(i + 1)}); !ok {
				t.Fatalf("store %d refused", i)
			}
			if i%3 == 0 {
				h.Clwb(now+1, addr)
			}
			// Let the memory controller drain the write-backs.
			for end := now + 10_000; now < end && !mc.WPQEmpty(); now++ {
				mc.Tick(now)
			}
			now += 10_000
		}
	}
	for _, l := range []*Level{l1, l2, l3} {
		if !levelTouched(l) {
			t.Fatalf("%d-byte level untouched by the workout", l.cfg.SizeBytes)
		}
	}

	h.Release()
	h.Release() // no-op: the private levels must not be listed twice
	l3.Release()
	for _, c := range []struct {
		cfg  config.Cache
		want *Level
	}{{cfg.L3, l3}, {cfg.L2, l2}, {cfg.L1D, l1}} {
		got := NewLevel(c.cfg)
		if got != c.want {
			t.Fatalf("%d-byte level: NewLevel did not reuse the released level", c.cfg.SizeBytes)
		}
		if !reflect.DeepEqual(got, newLevel(c.cfg)) {
			t.Fatalf("%d-byte level: reused level differs from a fresh one", c.cfg.SizeBytes)
		}
		if again := NewLevel(c.cfg); again == got {
			t.Fatalf("%d-byte level: handed out twice", c.cfg.SizeBytes)
		}
	}
}

// levelTouched reports whether any way holds state or any set is marked.
func levelTouched(l *Level) bool {
	for _, w := range l.used {
		if w != 0 {
			return true
		}
	}
	for i := range l.ways {
		if l.ways[i] != (way{}) {
			return true
		}
	}
	return false
}

// TestReusedLevelKeepsItsLatency checks that only the geometry keys the
// free list: a level reused under a different latency reports the new one.
func TestReusedLevelKeepsItsLatency(t *testing.T) {
	c := config.Cache{SizeBytes: 4 << 10, Ways: 4, Latency: 3}
	l := NewLevel(c)
	l.Release()
	c.Latency = 9
	if got := NewLevel(c); got != l || got.Latency() != 9 {
		t.Fatalf("reused level: same=%v latency %d, want the released level at 9", got == l, got.Latency())
	}
}

// TestLevelFreeListConcurrent recycles levels of one geometry from
// several goroutines at once, as concurrent engine workers do: every
// level handed out must be clear, and no level may be held twice (the
// race detector reports two holders writing the same ways).
func TestLevelFreeListConcurrent(t *testing.T) {
	c := config.Cache{SizeBytes: 2 << 10, Ways: 2, Latency: 1}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l := NewLevel(c)
				if levelTouched(l) {
					t.Error("NewLevel handed out a level with state")
					return
				}
				line := uint64(g*1000+i) * isa.LineSize
				w := l.victim(line)
				*w = way{tag: line, valid: true, dirty: true, lru: uint64(i + 1)}
				l.Release()
			}
		}(g)
	}
	wg.Wait()
}
