package cpu

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/memctrl"
	"repro/internal/nvm"
	"repro/internal/stats"
)

// chopSource hands out ops in windows of cycling sizes, copied into one
// reused buffer, so a core that read a window past its next refill would
// see the wrong ops.
type chopSource struct {
	ops   []isa.Op
	sizes []int
	buf   []isa.Op
	k     int
}

func (s *chopSource) Window(from int) []isa.Op {
	if from == len(s.ops) {
		return nil
	}
	n := min(s.sizes[s.k%len(s.sizes)], len(s.ops)-from)
	s.k++
	s.buf = append(s.buf[:0], s.ops[from:from+n]...)
	return s.buf
}

func (s *chopSource) Txns() int { return (&isa.Trace{Ops: s.ops}).Txns() }

// runCore runs one core of a plain-mode machine on src to completion,
// calling check after every cycle.
func runCore(t *testing.T, src Source, check func(*Core)) *stats.Core {
	t.Helper()
	cfg := config.Default()
	cfg.Cores = 1
	var ms stats.Mem
	var cs stats.Core
	mc := memctrl.New(cfg.Mem, nvm.NewDevice(cfg.Mem, &ms), nvm.NewStore(), &ms)
	c := New(0, cfg, ModePlain, false, cache.NewHierarchy(cfg, cache.NewLevel(cfg.L3), mc, &cs), mc, src, &cs)
	for now := uint64(1); !c.Done(); now++ {
		if now > 1_000_000 {
			t.Fatal("core did not finish")
		}
		mc.Tick(now)
		c.Tick(now)
		check(c)
	}
	return &cs
}

// TestWindowedFetchMatchesOneWindow feeds a core the same ops in windows
// of every size from 1 to 7 (ending at every offset of the 5-wide
// dispatch group) and as one materialized window. After every cycle the
// window must hold the op at pc unless the stream is exhausted: Tick's
// finished check and NextEvent's dispatch wake read it without
// refilling. Every op must dispatch, in order, with the same timing.
func TestWindowedFetchMatchesOneWindow(t *testing.T) {
	var ops []isa.Op
	for i := 0; i < 60; i++ {
		addr := isa.HeapBase + uint64(i%7)*isa.LineSize
		ops = append(ops,
			isa.Op{Kind: isa.TxBegin, Tx: uint32(i + 1)},
			isa.Op{Kind: isa.Alu, Val: uint64(i % 4)},
			isa.Op{Kind: isa.Ld, Size: 8, Addr: addr},
			isa.Op{Kind: isa.St, Size: 8, Tx: uint32(i + 1), Addr: addr, Val: uint64(i)},
			isa.Op{Kind: isa.Clwb, Addr: addr},
			isa.Op{Kind: isa.Sfence},
			isa.Op{Kind: isa.TxEnd, Tx: uint32(i + 1)},
		)
	}
	want := runCore(t, &isa.Trace{Ops: ops}, func(*Core) {})
	for size := 1; size <= 7; size++ {
		t.Run(fmt.Sprintf("windows-of-%d", size), func(t *testing.T) {
			var fetched int
			got := runCore(t, &chopSource{ops: ops, sizes: []int{size, size + 1}}, func(c *Core) {
				if c.pc >= len(c.window) && c.src != nil {
					t.Fatalf("window spent at op %d with the stream not exhausted", c.base+c.pc)
				}
				fetched = c.base + c.pc
			})
			if fetched != len(ops) {
				t.Errorf("fetched %d ops, want %d", fetched, len(ops))
			}
			if *got != *want {
				t.Errorf("windowed run differs from one window:\ngot  %+v\nwant %+v", *got, *want)
			}
		})
	}
}
