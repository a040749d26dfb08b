package cpu

import "repro/internal/isa"

// never is the NextEvent result for a finished (or fully MC-blocked) core.
const never = ^uint64(0)

// BusyHint cheaply reports that the core is certainly going to act next
// cycle: it is mid-ALU-burst or holds refused memory ops that retry every
// cycle. The fast stepper uses it to skip the full NextEvent analysis.
func (c *Core) BusyHint() bool {
	return !c.finished && (c.aluLeft > 0 || c.unissued > 0)
}

// ProgressSig mixes the core's cheap progress indicators into a hash. The
// fast stepper only attempts a fast-forward when the signature did not
// change across a tick; a collision is harmless (NextEvent is the oracle,
// the signature is only a gate), so the hash need not be strong.
func (c *Core) ProgressSig() uint64 {
	const m = 0x9E3779B97F4A7C15
	h := uint64(c.base + c.pc)
	h = h*m + uint64(c.robCount)
	h = h*m + uint64(c.sbCount)
	h = h*m + c.aluLeft
	h = h*m + uint64(c.loads)<<16 + uint64(c.stores)
	h = h*m + uint64(len(c.atomQ))<<16 + uint64(len(c.txs))<<8 + uint64(c.txEndStage)
	h = h*m + uint64(c.lqCount)<<8 + uint64(len(c.persistAcks))
	h = h*m + uint64(c.unissued)
	if c.st != nil {
		h = h*m + c.st.Retired
	}
	return h
}

// NextEvent returns the next cycle strictly after now at which the core
// can change state, assuming no tick happens in between. It returns 0 when
// the core may act on the very next cycle ("active" — including every
// retry path with observable side effects, such as stall counters), and
// never when the core is finished or waiting purely on the memory
// controller (whose own NextEvent then supplies the wake).
//
// The contract is one-sided: returning 0 is always sound (the caller just
// keeps ticking cycle by cycle); a wake later than the true next state
// change would corrupt the simulation, so every blocked condition below
// either maps to a concrete timestamp the blocking event carries or
// conservatively returns 0.
func (c *Core) NextEvent(now uint64) uint64 {
	if c.finished {
		return never
	}
	if c.aluLeft > 0 || c.unissued > 0 {
		return 0
	}
	wake := never
	upd := func(t uint64) {
		if t < wake {
			wake = t
		}
	}

	// LogQ entries: waiting on log-register data (lr.doneAt), retrying a
	// refused WriteLine (active), or waiting for the MC ack (ackAt).
	if c.lqCount > 0 {
		for i := range c.logQ {
			q := &c.logQ[i]
			if !q.valid {
				continue
			}
			if !q.hasData {
				lr := &c.lr[q.lr]
				if !lr.busy || !lr.issued || lr.doneAt <= now {
					return 0
				}
				upd(lr.doneAt)
				continue
			}
			if !q.issued || q.ackAt <= now {
				return 0
			}
			upd(q.ackAt)
		}
	}

	// ATOM request queue. Sent requests form a prefix; the head's ack pops
	// the queue. An unsent request inside the in-flight window is gated
	// only on WPQ space, which another component can free any cycle.
	if len(c.atomQ) > 0 {
		head := c.atomQ[0]
		if !head.sent {
			return 0
		}
		if head.ackAt <= now {
			return 0
		}
		upd(head.ackAt)
		sent := 0
		for _, r := range c.atomQ {
			if !r.sent {
				break
			}
			sent++
		}
		if sent < len(c.atomQ) && sent < c.cfg.ATOM.InFlight {
			return 0
		}
	}

	// Store buffer: throttled by sbBusyUntil, blocked on a pending
	// log-flush (covered by the LogQ wakes above), or ready to attempt a
	// drain — attempts have side effects even when refused, so they count
	// as activity.
	if c.sbCount > 0 {
		if c.sbBusyUntil > now {
			upd(c.sbBusyUntil)
		} else {
			e := c.sbAt(0)
			blocked := e.kind == sbStore && c.mode == ModeProteus &&
				e.tx != 0 && isa.IsPersistentAddr(e.addr) && c.logBlocked(e.addr)
			if !blocked {
				return 0
			}
		}
	}

	// Retirement: the head entry's completion time, or the event that
	// unblocks a completed-but-held head.
	if c.robCount > 0 {
		e := c.robAt(0)
		if e.doneAt > now {
			upd(e.doneAt)
		} else if w := c.retireWake(now, e); w == 0 {
			return 0
		} else if w != never {
			upd(w)
		}
	}

	// Dispatch: the front end acts unless the resource its next op needs
	// is exhausted, in which case the event freeing it is already covered
	// by the retirement / store-buffer / LogQ wakes above.
	if c.pc < len(c.window) && c.robCount < len(c.rob) {
		switch op := c.window[c.pc]; op.Kind {
		case isa.Ld, isa.LockAcq:
			if c.loads < c.cfg.Core.LoadQ {
				return 0
			}
		case isa.LogLoad:
			if c.loads < c.cfg.Core.LoadQ {
				if c.mode != ModeProteus || c.freeLR() >= 0 {
					return 0
				}
				// All log registers busy: each is awaiting its LogQ data
				// copy (every preceding log-flush already dispatched), so
				// the LogQ wakes cover the release.
			}
		case isa.St, isa.LockRel, isa.Clwb:
			if c.stores < c.cfg.Core.StoreQ {
				return 0
			}
		case isa.LogFlush:
			if c.mode != ModeProteus || len(c.lrFIFO) == 0 ||
				c.lr[c.lrFIFO[0]].filtered || c.lqCount < len(c.logQ) {
				return 0
			}
			// LogQ full: entry wakes above cover the free-up.
		default:
			// Alu, TxBegin, TxEnd, Sfence, Pcommit, LogSave, Nop dispatch
			// without extra resources.
			return 0
		}
	}

	return wake
}

// retireWake analyzes a completed head-of-ROB entry that retire(now) left
// in place: 0 if the retire attempt itself has side effects or could
// succeed next cycle, a timestamp if the blocking event carries one, and
// never if an earlier section (store buffer, LogQ, ATOM queue) or the
// memory controller already covers the unblocking event.
func (c *Core) retireWake(now uint64, e *robEntry) uint64 {
	switch e.op.Kind {
	case isa.St, isa.LockRel:
		if c.sbCount >= c.cfg.Core.StoreBuf {
			return never // store-buffer wake covers
		}
		if c.mode == ModeATOM && e.op.Kind == isa.St && e.op.Tx != 0 &&
			isa.IsPersistentAddr(e.op.Addr) &&
			!c.atomAcked(e.op.Tx, isa.LineAddr(e.op.Addr), now) {
			if len(c.atomQ) == 0 {
				return 0 // defensive: unacked implies a queued request
			}
			return never // ATOM queue wake covers
		}
		return 0
	case isa.Clwb:
		if c.sbCount >= c.cfg.Core.StoreBuf {
			return never
		}
		return 0
	case isa.Sfence:
		return c.persistWake(now)
	case isa.Pcommit:
		if !c.pcommitForcing {
			return c.persistWake(now)
		}
		if c.mc.WPQDrainedThrough(c.pcommitSeq) {
			return 0
		}
		// Not drained through: the WPQ holds an entry with seq <=
		// pcommitSeq, so the MC's NextEvent supplies the wake.
		return never
	case isa.TxEnd:
		return c.txEndWake(now, e.op.Tx)
	case isa.LogSave:
		if c.sbCount > 0 || c.lqCount > 0 {
			return never // store-buffer / LogQ wakes cover
		}
		return 0
	default:
		// Ld, LockAcq, LogLoad, LogFlush, TxBegin, Alu, Nop retire freely.
		return 0
	}
}

// persistWake is the sfence/pcommit-phase-1 wait: all acks expired (and
// the store buffer empty, covered elsewhere when not) unblocks it.
func (c *Core) persistWake(now uint64) uint64 {
	if c.sbCount > 0 {
		return never // store-buffer wake covers
	}
	m := uint64(0)
	for _, a := range c.persistAcks {
		if a > m {
			m = a
		}
	}
	if m <= now {
		return 0
	}
	return m
}

// txEndWake mirrors retireTxEnd's staged blocking conditions.
func (c *Core) txEndWake(now uint64, tx uint32) uint64 {
	if c.mode == ModePlain {
		return 0
	}
	t := c.rtx()
	if t == nil || t.tx != tx {
		return 0
	}
	switch c.txEndStage {
	case txEndIdle:
		if c.sbCount > 0 {
			return never // store-buffer wake covers
		}
		if c.mode == ModeProteus && !c.logQEmptyFor(tx) {
			return never // LogQ wakes cover
		}
		return 0
	case txEndWaitAcks:
		if c.txFlushMax > now {
			return c.txFlushMax
		}
		return 0
	default:
		// Flushing issues clwbs (or retries refused ones) every cycle;
		// finalize acts every cycle.
		return 0
	}
}
