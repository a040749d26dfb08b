package cpu

import (
	"repro/internal/isa"
	"repro/internal/logfmt"
)

// atomMaybeLog enqueues a hardware log-creation request for the line's
// first transactional store (ATOM creates one log entry per update per
// transaction). The pre-image is captured at dispatch, before the
// triggering store enters the ROB, with store-to-load forwarding from
// older in-flight stores.
func (c *Core) atomMaybeLog(now uint64, t *txState, line uint64, tx uint32) {
	if _, ok := t.atomLogged.get(line); ok {
		return
	}
	req := c.newAtomReq()
	req.tx = tx
	c.forwardedPeek(line, isa.LineSize, req.data[:])
	req.metaAddr = c.atomCursor
	c.atomCursor += logfmt.PairEntrySize
	if c.atomCursor+logfmt.PairEntrySize > c.logEnd {
		c.atomCursor = c.logStart
	}
	req.meta = logfmt.EncodePairMeta(logfmt.PairEntry{
		From: line, Tx: uint64(tx), Len: isa.LineSize,
		DataCRC: logfmt.PairDataCRC(req.data[:]),
	})
	t.atomLogged.put(line, len(t.atomReqs))
	t.atomReqs = append(t.atomReqs, req)
	t.atomEntries = append(t.atomEntries, req.metaAddr)
	c.atomQ = append(c.atomQ, req)
	if c.st != nil {
		c.st.LogFlushes++
	}
}

// atomAcked reports whether the line's log entry has been acknowledged by
// the MC; transactional stores may not retire before that ("logging delays
// the store's retirement and the store is held in the storeQ until the
// logging operation is completed", §5.1).
func (c *Core) atomAcked(tx uint32, line uint64, now uint64) bool {
	t := c.txFor(tx)
	if t == nil {
		return true
	}
	idx, ok := t.atomLogged.get(line)
	if !ok {
		return true
	}
	req := t.atomReqs[idx]
	return req.acked && req.ackAt <= now
}

// tickAtomQ issues log-creation requests in order with a small in-flight
// window (cfg.ATOM.InFlight) and completes them when the MC acknowledges
// acceptance (posted-log: the ack is sent when the entry arrives at the
// MC, before it is durable in NVM). Stores still cannot retire before
// their line's ack — the coupling the Proteus LogQ removes (§6).
func (c *Core) tickAtomQ(now uint64) {
	if len(c.atomQ) == 0 {
		return
	}
	// Retire acknowledged heads.
	for len(c.atomQ) > 0 && c.atomQ[0].sent && c.atomQ[0].ackAt <= now {
		c.atomQ[0].acked = true
		copy(c.atomQ, c.atomQ[1:])
		c.atomQ[len(c.atomQ)-1] = nil
		c.atomQ = c.atomQ[:len(c.atomQ)-1]
	}
	inFlight := 0
	for _, req := range c.atomQ {
		if !req.sent {
			if inFlight >= c.cfg.ATOM.InFlight || c.mc.WPQFree() < 2 {
				return
			}
			arrive := now + c.mcTrip
			c.mc.AtomLog(arrive, c.id, req.tx, req.metaAddr, req.meta)
			c.mc.AtomLog(arrive, c.id, req.tx, req.metaAddr+isa.LineSize, req.data)
			req.sent = true
			req.ackAt = arrive + 1 + c.mcTrip
		}
		inFlight++
	}
}
