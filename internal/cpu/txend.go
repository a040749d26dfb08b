package cpu

// tx-end stages for the hardware-logging modes.
const (
	txEndIdle = iota
	txEndFlushing
	txEndWaitAcks
	txEndFinalize
)

// retireTxEnd performs the tx-end actions and reports whether the
// instruction can retire this cycle.
//
// In ModePlain the software already persisted everything (Figure 2's
// steps), so tx-end is only the commit marker.
//
// In the hardware modes, tx-end makes the transaction durable: it waits
// for the store buffer and the transaction's log operations to drain, then
// flushes the transaction's dirty data lines into the WPQ (which is inside
// the persistency domain under ADR: "when a transaction ends, we can be
// sure that all of its data updates are durable, either in the NVMM or in
// the WPQ", §3.1). Then ATOM truncates its log (§4.3) while Proteus marks
// the last log entry as the transaction end and flash-clears the rest of
// the transaction's LPQ entries (§4.3).
func (c *Core) retireTxEnd(now uint64, tx uint32) bool {
	t := c.rtx()
	if c.mode == ModePlain {
		c.Commits = append(c.Commits, Commit{Tx: tx, Cycle: now})
		if t != nil && t.tx == tx {
			c.popTx()
		}
		c.curTx = 0
		return true
	}
	if t == nil || t.tx != tx {
		// No bookkeeping (e.g. a trace without tx-begin); just commit.
		c.Commits = append(c.Commits, Commit{Tx: tx, Cycle: now})
		c.curTx = 0
		return true
	}

	switch c.txEndStage {
	case txEndIdle:
		if c.sbCount > 0 {
			return false
		}
		if c.mode == ModeProteus && !c.logQEmptyFor(tx) {
			return false
		}
		// Collect the transaction's still-dirty data lines.
		c.txFlushList = c.txFlushList[:0]
		for _, line := range t.dirtyList {
			if c.hier.IsDirty(line) {
				c.txFlushList = append(c.txFlushList, line)
			}
		}
		c.txFlushIdx = 0
		c.txFlushMax = 0
		c.txMarkDone = false
		c.txEndStage = txEndFlushing
		fallthrough

	case txEndFlushing:
		for n := 0; n < 2 && c.txFlushIdx < len(c.txFlushList); n++ {
			done, _, ok := c.hier.Clwb(now, c.txFlushList[c.txFlushIdx])
			if !ok {
				return false // WPQ backpressure; retry
			}
			if done > c.txFlushMax {
				c.txFlushMax = done
			}
			c.txFlushIdx++
		}
		if c.txFlushIdx < len(c.txFlushList) {
			return false
		}
		c.txEndStage = txEndWaitAcks
		fallthrough

	case txEndWaitAcks:
		if c.txFlushMax > now {
			return false
		}
		c.txEndStage = txEndFinalize
		fallthrough

	default: // txEndFinalize
		switch c.mode {
		case ModeProteus:
			if t.logCount > 0 && !c.txMarkDone {
				if !c.mc.MarkCommit(now, c.id, tx, t.lastLogTo) {
					return false // WPQ full while rewriting a drained entry
				}
				c.txMarkDone = true
			}
			if c.lwr {
				c.mc.FlashClear(c.id, tx)
			}
		case ModeATOM:
			c.mc.AtomTxEnd(now, c.id, tx, t.atomEntries, c.cfg.ATOM.MCTrackEntries)
		}
		c.Commits = append(c.Commits, Commit{Tx: tx, Cycle: now})
		c.st.TxCommitted++
		c.popTx()
		c.curTx = 0
		c.txEndStage = txEndIdle
		return true
	}
}
