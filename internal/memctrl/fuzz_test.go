package memctrl

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/nvm"
	"repro/internal/stats"
)

// FuzzControllerCaches drives two controllers through one random sequence
// of every mutating call plus ReadLine and Tick. One gates its issue pass
// (the default); its twin runs the pass on every cycle, as under the
// reference stepper. After each call each controller's cached PersistSig
// must equal an uncached recompute and the twins must agree on it and on
// every return value; after a final forced drain they must hold the same
// queues, store bytes, device state and stats.
//
// The queues are small (8-entry WPQ, 4-entry LPQ, 4-entry read queue) so
// full stalls, LPQ evictions and both drain-gate regimes occur; the first
// two bytes pick DrainHi and MaxWPQAge. The remaining bytes are calls,
// each an opcode byte and an argument byte.
func FuzzControllerCaches(f *testing.F) {
	f.Add([]byte{3, 16, 1, 0, 1, 1, 0, 40, 10, 0, 1, 9, 0, 200})
	f.Add([]byte{0, 47, 1, 5, 9, 0, 0, 3, 1, 5, 0, 255, 10, 5, 2, 37, 0, 90})
	f.Add([]byte{7, 3, 5, 1, 5, 2, 6, 2, 7, 1, 5, 3, 8, 3, 5, 4, 5, 5, 5, 6, 0, 120, 5, 7, 6, 7})
	f.Add([]byte{2, 63, 3, 1, 3, 2, 3, 9, 0, 30, 4, 1, 3, 5, 0, 2, 4, 18, 9, 0, 0, 200, 4, 2})
	f.Add([]byte{1, 1, 1, 0, 1, 8, 1, 16, 11, 3, 2, 24, 1, 32, 10, 8, 0, 6, 10, 0, 1, 0, 0, 255})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 2 {
			return
		}
		cfg := config.Default().Mem
		cfg.WPQ, cfg.LPQ, cfg.ReadQ = 8, 4, 4
		cfg.DrainHi = int(prog[0] % 10)
		cfg.MaxWPQAge = int(prog[1] % 64)
		gated, twin := fuzzController(cfg), fuzzController(cfg)
		twin.IssueEveryCycle(true)
		both := []*Controller{gated, twin}

		var now uint64 = 1
		check := func(step int, what string) {
			t.Helper()
			for _, c := range both {
				if got, want := c.PersistSig(), c.persistSig(); got != want {
					t.Fatalf("call %d (%s): cached PersistSig %#x, recomputed %#x (everyCycle=%v)", step, what, got, want, c.everyCycle)
				}
			}
			if gated.PersistSig() != twin.PersistSig() {
				t.Fatalf("call %d (%s) at cycle %d: the gated controller's persist state differs from its per-cycle twin", step, what, now)
			}
		}
		tick := func(cycles uint64) {
			for end := now + cycles; now < end; {
				now++
				for _, c := range both {
					c.Tick(now)
				}
			}
		}
		for i, step := 2, 0; i+1 < len(prog); i, step = i+2, step+1 {
			op, arg := prog[i]%12, prog[i+1]
			addr := fuzzLine(arg)
			core, tx := int(arg>>7), uint32(arg>>5&3)
			logTo, _ := isa.LogWindow(core)
			logTo += uint64(arg&7) * isa.LineSize
			var data [isa.LineSize]byte
			data[0], data[63] = arg, byte(step)
			var what string
			var got [2]any
			for k, c := range both {
				switch op {
				case 0:
					what = "Tick"
				case 1:
					what, got[k] = "WriteLine", c.WriteLine(now, addr, data, stats.WriteData)
				case 2:
					what = "WriteLineEvict"
					c.WriteLineEvict(now, addr, data, stats.WriteData)
				case 3:
					// ATOM's requests arrive a few cycles after the call.
					what = "AtomLog"
					ack, ok := c.AtomLog(now+uint64(arg&3), core, tx, logTo, data)
					got[k] = [2]any{ack, ok}
				case 4:
					what = "AtomTxEnd"
					base, _ := isa.LogWindow(core)
					c.AtomTxEnd(now, core, tx, []uint64{base, base + isa.LineSize, logTo}, int(arg&3))
				case 5:
					what, got[k] = "LogFlush", c.LogFlush(now, LogEntry{Core: core, Tx: tx, LogTo: logTo, Data: data, Last: arg&8 != 0})
				case 6:
					what, got[k] = "MarkCommit", c.MarkCommit(now, core, tx, logTo)
				case 7:
					what = "FlashClear"
					c.FlashClear(core, tx)
				case 8:
					what = "DrainLog"
					c.DrainLog(now, core, tx)
				case 9:
					what = "ForceDrain"
					c.ForceDrain(arg&1 == 0)
				case 10:
					what = "ReadLine"
					done, line, ok := c.ReadLine(now, addr)
					got[k] = [3]any{done, line, ok}
				case 11:
					what, got[k] = "WriteLine(log)", c.WriteLine(now, logTo, data, stats.WriteLog)
				}
			}
			if op == 0 {
				tick(1 + uint64(arg))
			}
			if got[0] != got[1] {
				t.Fatalf("call %d (%s): gated controller returned %v, its per-cycle twin %v", step, what, got[0], got[1])
			}
			check(step, what)
		}
		for _, c := range both {
			c.ForceDrain(true)
		}
		for limit := now + 100_000; now < limit && !(gated.WPQEmpty() && twin.WPQEmpty()); {
			tick(1)
			check(-1, "drain")
		}
		if !reflect.DeepEqual(gated.wpq, twin.wpq) || !reflect.DeepEqual(gated.lpq, twin.lpq) || !reflect.DeepEqual(gated.reads, twin.reads) {
			t.Fatalf("queues differ after the drain:\ngated WPQ %v LPQ %d reads %v\ntwin  WPQ %v LPQ %d reads %v",
				gated.wpq, len(gated.lpq), gated.reads, twin.wpq, len(twin.lpq), twin.reads)
		}
		if *gated.st != *twin.st {
			t.Fatalf("stats differ:\ngated %+v\ntwin  %+v", *gated.st, *twin.st)
		}
		if !reflect.DeepEqual(gated.dev, twin.dev) {
			t.Fatal("device bank state differs")
		}
		var a, b bytes.Buffer
		if err := gated.store.Serialize(&a); err != nil {
			t.Fatal(err)
		}
		if err := twin.store.Serialize(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatal("store bytes differ")
		}
	})
}

func fuzzController(cfg config.Mem) *Controller {
	st := &stats.Mem{}
	return New(cfg, nvm.NewDevice(cfg, st), nvm.NewStore(), st)
}

// fuzzLine maps an argument byte to one of 32 data lines: eight lines in
// each of four rows, so writes coalesce, queue behind an issued write to
// their line and burst out with their row.
func fuzzLine(arg byte) uint64 {
	return isa.HeapBase + uint64(arg&7)*isa.LineSize + uint64(arg>>3&3)*17*2048
}
