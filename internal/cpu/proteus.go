package cpu

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/logfmt"
	"repro/internal/memctrl"
	"repro/internal/stats"
)

// freeLR returns a free log-register index, or -1 (a structural hazard
// that stalls dispatch, §3.2).
func (c *Core) freeLR() int {
	for i := range c.lr {
		if !c.lr[i].busy {
			return i
		}
	}
	return -1
}

// dispatchLogLoad enters a log-load into the pipeline. The LLT is checked
// here (the log-from address needs no register inputs in the modeled
// traces): on a hit, the log-load — and its paired log-flush — complete
// immediately and no log entry is created (§4.2).
//
// The pre-image is captured at dispatch with forwarding from older
// in-flight stores; at this point no younger op (in particular not the
// paired store) is in the ROB, so the captured bytes are exactly the
// pre-transaction value of the block.
func (c *Core) dispatchLogLoad(now uint64, op isa.Op, lri int) {
	block := isa.LogBlockAddr(op.Addr)
	hit := c.llt.LookupInsert(block, now)
	c.st.LogLoads++
	if hit {
		c.st.LLTHits++
	} else {
		c.st.LLTMisses++
	}
	c.lr[lri] = lrSlot{busy: true, filtered: hit, addr: block}
	if !hit {
		c.forwardedPeek(block, isa.LogBlockSize, c.lr[lri].data[:])
	}
	c.lrFIFO = append(c.lrFIFO, lri)
	c.loads++
	e := c.robPush(robEntry{op: op, lr: lri, lqe: -1})
	if hit {
		e.issued = true
		e.doneAt = now + 1
		c.lr[lri].issued = true
		c.lr[lri].doneAt = now + 1
	} else {
		c.issueProteusLogLoad(now, e)
		if !e.issued {
			c.unissued++
		}
	}
}

// issueProteusLogLoad sends the 32-byte log read into the hierarchy. The
// data was already captured at dispatch; this models the read's timing.
func (c *Core) issueProteusLogLoad(now uint64, e *robEntry) {
	lr := &c.lr[e.lr]
	done, ok := c.hier.Load(now, lr.addr, isa.LogBlockSize, nil)
	if !ok {
		return
	}
	e.issued = true
	e.doneAt = done
	lr.issued = true
	lr.doneAt = done
}

// dispatchLogFlush enters a log-flush. A filtered flush (LLT hit on its
// log-load) completes immediately; otherwise a LogQ entry is required and
// dispatch stalls when none is free, which also guarantees the persist
// ordering against later same-address stores can be enforced (§4.2).
// The log-to address is assigned here, i.e. in program order across all
// log-flushes, so recovery can rely on the earliest entry per address
// being first in the log (§4.2).
func (c *Core) dispatchLogFlush(now uint64, op isa.Op) bool {
	if len(c.lrFIFO) == 0 {
		panic(fmt.Sprintf("cpu: core %d log-flush without preceding log-load at op %d", c.id, c.base+c.pc))
	}
	lri := c.lrFIFO[0]
	if c.lr[lri].filtered {
		c.popLRFIFO()
		c.lr[lri] = lrSlot{} // recycle immediately; nothing to flush
		c.robPush(robEntry{op: op, issued: true, doneAt: now + 1, filtered: true, lr: -1, lqe: -1})
		return true
	}
	slot := -1
	for i := range c.logQ {
		if !c.logQ[i].valid {
			slot = i
			break
		}
	}
	if slot < 0 {
		c.stall(stats.StallLogQ)
		return false
	}
	c.popLRFIFO()

	logTo := c.curlog
	c.curlog += isa.LineSize
	if c.curlog >= c.logEnd {
		c.curlog = c.logStart
	}
	t := c.dtx()
	if t != nil {
		t.logCount++
		t.lastLogTo = logTo
		if uint64(t.logCount)*isa.LineSize > c.logEnd-c.logStart {
			c.st.LogOverflow++
		}
	}

	c.lqSeq++
	c.logQ[slot] = lqEntry{
		valid: true, lr: lri, logFrom: c.lr[lri].addr, logTo: logTo,
		tx: op.Tx, seq: c.lqSeq,
	}
	c.lqCount++
	c.st.LogFlushes++
	c.robPush(robEntry{op: op, issued: true, doneAt: now + 1, lr: lri, lqe: slot, lqSeq: c.lqSeq})
	return true
}

// popLRFIFO removes the oldest pending log-load, keeping the slice's
// storage (its capacity is bounded by the log-register count).
func (c *Core) popLRFIFO() {
	copy(c.lrFIFO, c.lrFIFO[1:])
	c.lrFIFO = c.lrFIFO[:len(c.lrFIFO)-1]
}

// tickLogQ advances in-flight log flushes: copies log data out of ready
// log registers, sends flushes to the memory controller (concurrently —
// the LogQ hides the logging latency, §4.2), and frees entries when the
// controller acknowledges receipt.
//
// Flushes leave for the controller in sequence (program) order. A
// younger transaction's log-load can complete long before an older one's
// (its block is already cached by the older transaction's own log-load),
// and letting its entry become durable first would leave a crash window
// where the log holds an undo entry whose pre-image is the *volatile*
// output of an earlier, unlogged transaction — recovery would then
// "restore" a state that never existed. In-order departure keeps the
// durable log a program-order prefix, which is exactly the invariant the
// §4.3 descending-chain recovery walk relies on.
func (c *Core) tickLogQ(now uint64) {
	if c.lqCount == 0 {
		return
	}
	for i := range c.logQ {
		q := &c.logQ[i]
		if !q.valid || q.hasData {
			continue
		}
		lr := &c.lr[q.lr]
		if lr.busy && lr.issued && lr.doneAt <= now {
			q.data = lr.data
			q.hasData = true
			// The register is recycled as soon as the LogQ owns the
			// data — LRs "can be recycled quickly", which is why
			// eight suffice (§4.2).
			*lr = lrSlot{}
		}
	}
	for {
		var next *lqEntry
		for i := range c.logQ {
			q := &c.logQ[i]
			if q.valid && !q.issued && (next == nil || q.seq < next.seq) {
				next = q
			}
		}
		// The oldest unissued flush gates all younger ones, whether it is
		// waiting on its log-load or on WPQ backpressure.
		if next == nil || !next.hasData {
			break
		}
		arrive := now + c.mcTrip
		line := logfmt.EncodeProteus(logfmt.ProteusEntry{Data: next.data, From: next.logFrom, Tx: next.tx, Seq: next.seq})
		if c.lwr {
			c.mc.LogFlush(arrive, memctrl.LogEntry{
				Core: c.id, Tx: next.tx, LogTo: next.logTo, Data: line,
			})
		} else if !c.mc.WriteLine(arrive, next.logTo, line, stats.WriteLog) {
			break // WPQ full; retry next cycle
		}
		next.issued = true
		next.ackAt = arrive + 1 + c.mcTrip
	}
	for i := range c.logQ {
		q := &c.logQ[i]
		if q.valid && q.issued && q.ackAt <= now {
			q.valid = false
			c.lqCount--
		}
	}
}
