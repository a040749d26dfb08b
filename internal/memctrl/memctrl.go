// Package memctrl models the memory controller: the read queue, the write
// pending queue (WPQ), and — for Proteus — the log pending queue (LPQ) of
// §4.3. With ADR, the WPQ and LPQ are inside the persistency domain:
// writes are durable on acceptance, which both lets log flushes complete
// early and enables Proteus's log write removal (log entries that are
// still in the LPQ when their transaction ends are flash-cleared and never
// written to NVMM).
package memctrl

import (
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/logfmt"
	"repro/internal/nvm"
	"repro/internal/stats"
)

// wpqEntry is one pending line write.
type wpqEntry struct {
	seq     uint64
	issueAt uint64
	addr    uint64 // line-aligned
	data    [isa.LineSize]byte
	cause   stats.WriteCause
	arrived uint64
	issued  bool
	doneAt  uint64
	// log bookkeeping for ATOM truncation: a log-creation write that is
	// cancelled before draining costs no NVM write.
	atomTx   uint32
	atomCore int
}

// LogEntry is one Proteus log-flush as it exists in the LPQ: the full
// 64-byte log line (32B data + metadata) plus the routing information the
// flash-clear needs (§4.3: "The LPQ contains log entries, where each entry
// contains the transaction ID, core ID, and various information about the
// log").
type LogEntry struct {
	Core  int
	Tx    uint32
	LogTo uint64 // line-aligned address in the thread's log area
	Data  [isa.LineSize]byte
	Last  bool // carries the transaction-end mark (§4.3)
}

// Controller is the memory controller plus its attached device.
type Controller struct {
	cfg   config.Mem
	dev   *nvm.Device
	store *nvm.Store
	st    *stats.Mem

	wpq       []wpqEntry
	lpq       []LogEntry
	reads     []uint64 // completion cycles of outstanding reads
	seq       uint64   // monotonically increasing write-acceptance sequence
	forceAll  int      // count of pcommit waiters forcing full drain
	drainHi   int
	maxWPQAge uint64

	// Event tracking: instead of polling every queue every cycle, Tick
	// keeps the next cycle each pass can possibly act. The cached values
	// are exact no-op filters — skipping a pass is provably identical to
	// running it.
	issuedN    int    // WPQ entries issued to the device, not yet retired
	unissuedN  int    // WPQ entries not yet issued
	nextRetire uint64 // min doneAt over issued entries (valid when issuedN > 0)
	readsMin   uint64 // min completion over outstanding reads (valid when len(reads) > 0)

	// muts counts the calls that changed the WPQ or LPQ (append, coalesce,
	// issue, retire, cancel, LPQ accept/drop/mark/drain) or the force-drain
	// state. It starts at 1, so a cached value stamped 0 is never current.
	// Two values are cached against it: the issue gate (the earliest cycle
	// an unissued write can issue, from nextIssue) and the persist
	// signature, which is also keyed to the store's write count.
	muts       uint64
	gateAt     uint64
	gateMuts   uint64
	sig        uint64
	sigMuts    uint64
	sigWrites  uint64
	everyCycle bool // run the issue pass on every cycle (IssueEveryCycle)

	atomScratch map[uint64]bool // reusable AtomTxEnd cancellation set
}

// New returns a controller draining into dev/store. The drain policy
// (hold-back threshold and maximum entry age) comes from the configuration
// so the §4.3 scheduling parameters can be swept like the queue capacities.
func New(cfg config.Mem, dev *nvm.Device, store *nvm.Store, st *stats.Mem) *Controller {
	return &Controller{
		cfg: cfg, dev: dev, store: store, st: st,
		drainHi:   cfg.DrainHi,
		maxWPQAge: uint64(cfg.MaxWPQAge),
		// WriteLineEvict can push past the configured capacity; leave
		// headroom so steady-state operation never regrows the arrays.
		wpq:         make([]wpqEntry, 0, cfg.WPQ+8),
		lpq:         make([]LogEntry, 0, cfg.LPQ+1),
		reads:       make([]uint64, 0, cfg.ReadQ),
		atomScratch: make(map[uint64]bool),
		muts:        1,
	}
}

// IssueEveryCycle makes Tick run the issue pass on every cycle that has an
// unissued write, instead of only once the cached gate says one can
// issue. The reference stepper sets it, so the per-cycle scan stays the
// oracle the gate is checked against. Either way the same writes issue at
// the same cycles.
func (c *Controller) IssueEveryCycle(on bool) { c.everyCycle = on }

// Device returns the attached device (for endurance accounting).
func (c *Controller) Device() *nvm.Device { return c.dev }

// Store returns the functional NVM contents.
func (c *Controller) Store() *nvm.Store { return c.store }

// ---------------------------------------------------------------- reads

// ReadLine services a 64-byte read arriving at the controller at cycle
// now. It returns the completion cycle (at the controller; the caller adds
// return transit) and the line data. ok is false when the read queue is
// full and the request must be retried.
//
// Reads check the WPQ for a pending write to the same line (§4.3) and are
// serviced from it with no device access; they do not check the LPQ.
func (c *Controller) ReadLine(now uint64, addr uint64) (done uint64, data [isa.LineSize]byte, ok bool) {
	addr = isa.LineAddr(addr)
	if i := c.youngest(addr); i >= 0 {
		// WPQ forwarding: a short fixed lookup cost.
		if c.st != nil {
			c.st.WPQForwards++
		}
		return now + 4, c.wpq[i].data, true
	}
	if len(c.reads) >= c.cfg.ReadQ {
		if c.st != nil {
			c.st.ReadQFullStall++
		}
		return 0, data, false
	}
	done = c.dev.Access(now, addr, false, stats.WriteData)
	if c.st != nil {
		c.st.ReadLatency += done - now
		c.st.ReadsServed++
	}
	if len(c.reads) == 0 || done < c.readsMin {
		c.readsMin = done
	}
	c.reads = append(c.reads, done)
	c.store.ReadInto(addr, data[:])
	return done, data, true
}

// PeekLine reads a line functionally (no timing, no queue effects),
// merging any pending WPQ write. Used for pre-image capture by hardware
// log creation.
func (c *Controller) PeekLine(addr uint64) (data [isa.LineSize]byte) {
	addr = isa.LineAddr(addr)
	if i := c.youngest(addr); i >= 0 {
		return c.wpq[i].data
	}
	c.store.ReadInto(addr, data[:])
	return data
}

// youngest returns the index of the most recently accepted WPQ entry for
// a line, or -1. A line can have two entries — one issued, one accepted
// after it — and the younger holds the value NVM ends up with.
func (c *Controller) youngest(addr uint64) int {
	for i := len(c.wpq) - 1; i >= 0; i-- {
		if c.wpq[i].addr == addr {
			return i
		}
	}
	return -1
}

// --------------------------------------------------------------- writes

// WriteLine offers a 64-byte write to the WPQ at cycle now. It returns
// false when the WPQ is full (the caller retries, modeling backpressure
// into the cache hierarchy). Writes to a line already pending coalesce
// into the existing entry.
func (c *Controller) WriteLine(now uint64, addr uint64, data [isa.LineSize]byte, cause stats.WriteCause) bool {
	addr = isa.LineAddr(addr)
	if c.coalesce(addr, &data) {
		return true
	}
	if len(c.wpq) >= c.cfg.WPQ {
		if c.st != nil {
			c.st.WPQFullStall++
		}
		return false
	}
	c.accept(wpqEntry{addr: addr, data: data, cause: cause, arrived: now})
	return true
}

// coalesce merges a write into the line's unissued WPQ entry, if it has
// one.
func (c *Controller) coalesce(addr uint64, data *[isa.LineSize]byte) bool {
	for i := range c.wpq {
		if c.wpq[i].addr == addr && !c.wpq[i].issued {
			c.wpq[i].data = *data
			c.muts++
			if c.st != nil {
				c.st.WPQCoalesced++
			}
			return true
		}
	}
	return false
}

// accept appends a new unissued entry, stamping its acceptance sequence.
func (c *Controller) accept(e wpqEntry) {
	c.seq++
	e.seq = c.seq
	c.unissuedN++
	c.muts++
	c.wpq = append(c.wpq, e)
}

// atomWrite is WriteLine plus ATOM log bookkeeping so truncation can
// cancel log writes that have not yet drained.
func (c *Controller) atomWrite(now uint64, addr uint64, data [isa.LineSize]byte, cause stats.WriteCause, core int, tx uint32) bool {
	addr = isa.LineAddr(addr)
	if len(c.wpq) >= c.cfg.WPQ {
		if c.st != nil {
			c.st.WPQFullStall++
		}
		return false
	}
	c.accept(wpqEntry{addr: addr, data: data, cause: cause, arrived: now, atomCore: core + 1, atomTx: tx})
	return true
}

// WPQLen returns the number of WPQ entries still pending or in flight.
func (c *Controller) WPQLen() int { return len(c.wpq) }

// WPQFree returns the number of free WPQ slots.
func (c *Controller) WPQFree() int {
	f := c.cfg.WPQ - len(c.wpq)
	if f < 0 {
		f = 0
	}
	return f
}

// WPQEmpty reports whether every accepted write has drained to NVM.
func (c *Controller) WPQEmpty() bool { return len(c.wpq) == 0 }

// ReadQLen returns the number of outstanding device reads (monitoring).
func (c *Controller) ReadQLen() int { return len(c.reads) }

// CurSeq returns the acceptance sequence number of the most recently
// accepted write. A pcommit captures it and waits for WPQDrainedThrough —
// writes accepted later (other cores') do not extend the wait.
func (c *Controller) CurSeq() uint64 { return c.seq }

// WPQDrainedThrough reports whether every write accepted at or before seq
// has drained to NVM (pcommit's completion condition).
func (c *Controller) WPQDrainedThrough(seq uint64) bool {
	for i := range c.wpq {
		if c.wpq[i].seq <= seq {
			return false
		}
	}
	return true
}

// ForceDrain makes Tick drain the WPQ as fast as the device allows until
// it is empty (used while a pcommit is outstanding). Calls nest.
func (c *Controller) ForceDrain(on bool) {
	if on {
		c.forceAll++
	} else if c.forceAll > 0 {
		c.forceAll--
	} else {
		return
	}
	c.muts++
}

// WriteLineEvict is WriteLine for cache evictions: it always accepts, even
// above the configured capacity, because an eviction in the middle of a
// line fill cannot be replayed. Overshoot is counted as WPQ full stalls.
func (c *Controller) WriteLineEvict(now uint64, addr uint64, data [isa.LineSize]byte, cause stats.WriteCause) {
	addr = isa.LineAddr(addr)
	if c.coalesce(addr, &data) {
		return
	}
	if len(c.wpq) >= c.cfg.WPQ && c.st != nil {
		c.st.WPQFullStall++
	}
	c.accept(wpqEntry{addr: addr, data: data, cause: cause, arrived: now})
}

// Tick advances the controller to cycle now: it retires writes whose
// device access has completed (applying their data to the store) and
// issues pending writes according to the drain policy (drain eagerly when
// the WPQ is above half capacity, when entries age out, or when a force
// drain is in effect; this leaves a window for write coalescing).
//
// Each pass is gated on the event times the controller tracks (read
// completions, issued-write completions, and the issue gate: the earliest
// cycle an unissued write can pass its drain and bank gates), so a tick in
// which nothing can happen costs three compares instead of three queue
// scans. The gates are exact: a skipped pass would not have changed any
// state.
func (c *Controller) Tick(now uint64) {
	if len(c.reads) > 0 && c.readsMin <= now {
		c.gcReads(now)
	}
	if c.issuedN > 0 && c.nextRetire <= now {
		c.retirePass(now)
	}
	if c.unissuedN == 0 {
		return
	}
	if c.everyCycle {
		c.issuePass(now)
	} else if c.issueGate() <= now && !c.issuePass(now) {
		// Nothing could issue after all: a bank the gate saw free has been
		// busied since by an access that left the queues alone (a read).
		// The queues are unchanged, so the gate is taken again without a
		// mutation.
		c.gateAt = c.nextIssue()
	}
}

// gcReads frees read-queue slots whose device access has completed.
func (c *Controller) gcReads(now uint64) {
	r := c.reads[:0]
	c.readsMin = ^uint64(0)
	for _, d := range c.reads {
		if d > now {
			if d < c.readsMin {
				c.readsMin = d
			}
			r = append(r, d)
		}
	}
	c.reads = r
}

// retirePass retires completed writes, applying their data to the store.
// Tick runs it only when one is due, so it always changes the WPQ.
func (c *Controller) retirePass(now uint64) {
	w := c.wpq[:0]
	c.issuedN = 0
	c.nextRetire = ^uint64(0)
	for _, e := range c.wpq {
		if e.issued && e.doneAt <= now {
			c.store.Write(e.addr, e.data[:])
			if c.st != nil {
				c.st.WPQDrained++
				if e.doneAt > e.arrived {
					c.st.WPQResidency += e.doneAt - e.arrived
				}
				if e.issueAt > e.arrived {
					c.st.WPQIssueDelay += e.issueAt - e.arrived
				}
				if e.doneAt > e.issueAt {
					c.st.WPQService += e.doneAt - e.issueAt
				}
			}
			continue
		}
		if e.issued {
			c.issuedN++
			if e.doneAt < c.nextRetire {
				c.nextRetire = e.doneAt
			}
		}
		w = append(w, e)
	}
	c.wpq = w
	c.muts++
}

// issue sends WPQ entry e to the device at cycle now.
func (c *Controller) issue(e *wpqEntry, now uint64) {
	e.issued = true
	e.issueAt = now
	e.doneAt = c.dev.Access(now, e.addr, true, e.cause)
	c.issuedN++
	c.unissuedN--
	if e.doneAt < c.nextRetire || c.issuedN == 1 {
		c.nextRetire = e.doneAt
	}
	c.muts++
}

// readyAt returns the first cycle at which the unissued entry e passes
// the issue pass's gates, given the banks' current busy times:
//
//   - its arrival;
//   - the drain gate: at or below DrainHi occupancy a write is held back
//     for MaxWPQAge cycles, leaving a window for writes to coalesce into
//     it. Log-area writes are never latency-critical (completion is
//     acceptance) and never read back, so they age 8x longer: a
//     transaction's worth accumulates and drains as one row batch,
//     amortizing the expensive NVM activate;
//   - the bank gate (read priority): a write starts only on a free bank,
//     so reads arriving meanwhile find their banks idle, except once it
//     is badly aged (4x MaxWPQAge).
//
// A force drain (pcommit) lifts both gates. Bank busy times only rise, so
// the result stays a lower bound until the queues change.
func (c *Controller) readyAt(e *wpqEntry) uint64 {
	if c.forceAll > 0 {
		return e.arrived
	}
	t := e.arrived
	if len(c.wpq) <= c.drainHi {
		maxAge := c.maxWPQAge
		if e.cause != stats.WriteData {
			maxAge *= 8
		}
		t += maxAge
	}
	return max(t, min(c.dev.NextFree(e.addr), e.arrived+4*c.maxWPQAge))
}

// heldBehind reports whether an older write to WPQ entry i's line is still
// queued, issued or not. Same-address write-write ordering holds i until
// that write leaves: draining a newer value before an older one would
// leave the older value in NVM.
func (c *Controller) heldBehind(i int) bool {
	for j := 0; j < i; j++ {
		if c.wpq[j].addr == c.wpq[i].addr {
			return true
		}
	}
	return false
}

// nextIssue returns the earliest cycle at which an unissued write can
// issue: the least readyAt over unissued writes not held behind an older
// write to their line, or ^uint64(0) when there is none. Tick gates its
// issue pass on it and NextEvent reports it, so the fast-forward wake and
// the gate cannot disagree. It stays a lower bound until the next
// mutation: bank busy times only rise, and a held write is released only
// by the retire or cancellation of the write ahead of it.
func (c *Controller) nextIssue() uint64 {
	t := ^uint64(0)
	for i := range c.wpq {
		e := &c.wpq[i]
		if !e.issued {
			if r := c.readyAt(e); r < t && !c.heldBehind(i) {
				t = r
			}
		}
	}
	return t
}

// issueGate returns nextIssue as of the last queue mutation.
func (c *Controller) issueGate() uint64 {
	if c.gateMuts != c.muts {
		c.gateAt, c.gateMuts = c.nextIssue(), c.muts
	}
	return c.gateAt
}

// issuePass issues pending writes FR-FCFS style, at a bounded rate so
// newer entries linger long enough to coalesce: row-buffer hits on free
// banks first (batching same-row writes amortizes the expensive NVM
// activates), then oldest-first on free banks, then oldest-first (aged
// writes on busy banks). A force drain (pcommit) lifts the rate bound. It
// reports whether it issued anything.
func (c *Controller) issuePass(now uint64) bool {
	budget := 4
	if c.forceAll > 0 {
		budget = len(c.wpq)
	}
	issued := false
	for ; budget > 0; budget-- {
		best := -1
		bestClass := 3
		for i := range c.wpq {
			e := &c.wpq[i]
			if e.issued || c.readyAt(e) > now {
				continue
			}
			class := 2
			if c.dev.NextFree(e.addr) <= now {
				class = 1
				if c.dev.IsOpenRow(e.addr) {
					class = 0
				}
			}
			// The same-address check is the costly filter, so it runs last
			// and only for a write that would be picked.
			if class >= bestClass || c.heldBehind(i) {
				continue
			}
			best, bestClass = i, class
			if class == 0 {
				break
			}
		}
		if best < 0 {
			break
		}
		e := &c.wpq[best]
		c.issue(e, now)
		issued = true
		// Burst out every other pending write to the same row while it is
		// open: one activate serves the whole batch (free of the budget —
		// row hits only occupy the bank for the burst).
		// Bound the burst so an arriving read never waits behind a long
		// write train (write pausing, a standard PCM-controller
		// technique).
		room := 4
		for i := range c.wpq {
			if room == 0 {
				break
			}
			o := &c.wpq[i]
			if o.issued || o.arrived > now || o.addr == e.addr || !c.dev.SameRow(o.addr, e.addr) || c.heldBehind(i) {
				continue
			}
			c.issue(o, now)
			room--
		}
	}
	return issued
}

// ------------------------------------------------------------- LPQ (Proteus)

// LogFlush offers a Proteus log entry to the LPQ at cycle now. It returns
// false when the LPQ is full and no entry can be evicted this cycle. On
// overflow the oldest entry is drained to NVM to make room (log entries
// inevitably released early this way are later identified as stale by
// their transaction ID during recovery; no invalidation writes are needed,
// §4.3).
//
// The arrival of a new transaction's first log entry discards a held
// last-entry of the previous transaction from the same core (§4.3).
func (c *Controller) LogFlush(now uint64, e LogEntry) bool {
	// Discard a previous transaction's held commit-mark entry.
	l := c.lpq[:0]
	for _, p := range c.lpq {
		if p.Core == e.Core && p.Tx != e.Tx && p.Last {
			if c.st != nil {
				c.st.LPQDropped++
			}
			continue
		}
		l = append(l, p)
	}
	c.lpq = l

	if len(c.lpq) >= c.cfg.LPQ {
		// Evict the oldest entry to NVM, through the write scheduler so
		// evictions batch by row instead of wedging banks one by one.
		old := c.lpq[0]
		copy(c.lpq, c.lpq[1:])
		c.lpq = c.lpq[:len(c.lpq)-1]
		c.WriteLineEvict(now, old.LogTo, old.Data, stats.WriteLog)
		if c.st != nil {
			c.st.LPQDrained++
		}
	}
	c.lpq = append(c.lpq, e)
	c.muts++
	if c.st != nil {
		c.st.LPQAccepted++
	}
	return true
}

// MarkCommit sets the transaction-end mark on the transaction's last log
// entry (§4.3: "Proteus utilizes the meta data of the last log entry for
// marking the end of the transaction"). If the entry is still in the LPQ
// the mark costs nothing; if it already drained to NVM (or the controller
// runs without log write removal) the updated entry must be written, which
// goes through the WPQ and can be refused when it is full (retry).
func (c *Controller) MarkCommit(now uint64, core int, tx uint32, lastLogTo uint64) bool {
	for i := range c.lpq {
		e := &c.lpq[i]
		if e.Core == core && e.Tx == tx && e.LogTo == lastLogTo {
			e.Last = true
			logfmt.SetProteusLast(&e.Data)
			c.muts++
			return true
		}
	}
	// Entry already in NVM (or WPQ): rewrite it with the mark set.
	line := c.PeekLine(lastLogTo)
	logfmt.SetProteusLast(&line)
	return c.WriteLine(now, lastLogTo, line, stats.WriteLog)
}

// FlashClear drops all LPQ entries of (core, tx) except one carrying the
// transaction-end mark, which is held until the next transaction's first
// log entry arrives (§4.3). It is called when tx-end executes, after the
// transaction's data updates are durable.
func (c *Controller) FlashClear(core int, tx uint32) {
	l := c.lpq[:0]
	for _, e := range c.lpq {
		if e.Core == core && e.Tx == tx && !e.Last {
			if c.st != nil {
				c.st.LPQDropped++
			}
			continue
		}
		l = append(l, e)
	}
	c.shrinkLPQ(l)
}

// shrinkLPQ installs the LPQ a filtering pass kept, counting a mutation
// when it dropped anything.
func (c *Controller) shrinkLPQ(kept []LogEntry) {
	if len(kept) != len(c.lpq) {
		c.muts++
	}
	c.lpq = kept
}

// DrainLog writes every LPQ entry of (core, tx) to NVM (the context-switch
// path, §4.4: "we send a message to the MC informing it to write all LPQ
// entries for the txID to NVMM").
func (c *Controller) DrainLog(now uint64, core int, tx uint32) {
	l := c.lpq[:0]
	for _, e := range c.lpq {
		if e.Core == core && e.Tx == tx {
			c.dev.Access(now, e.LogTo, true, stats.WriteLog)
			c.store.Write(e.LogTo, e.Data[:])
			if c.st != nil {
				c.st.LPQDrained++
			}
			continue
		}
		l = append(l, e)
	}
	c.shrinkLPQ(l)
}

// LPQLen returns the LPQ occupancy.
func (c *Controller) LPQLen() int { return len(c.lpq) }

// ---------------------------------------------------------------- ATOM

// AtomLog creates a log entry for one cache line at the controller (the
// source-log optimization: the entry is created at the MC rather than the
// cache controller). preimage is the line's pre-transaction contents;
// logTo is where the entry lands in the core's log area. With the
// posted-log optimization the acknowledgment is sent as soon as the entry
// is accepted, so the returned ack cycle is the acceptance cycle; ok is
// false when the WPQ is full and the request must be retried.
//
// ATOM has no LPQ: its log writes drain to NVM with regular writes, which
// is the source of its write amplification (Figure 8).
func (c *Controller) AtomLog(now uint64, core int, tx uint32, logTo uint64, entry [isa.LineSize]byte) (ack uint64, ok bool) {
	if !c.atomWrite(now, logTo, entry, stats.WriteLog, core, tx) {
		return 0, false
	}
	return now, true
}

// AtomTxEnd truncates the transaction's log: entries still pending in the
// WPQ are cancelled (no NVM write ever happens), while entries already
// drained must be invalidated with one NVM write each (§4.3: ATOM's MC
// tracks active log entries and clears them; beyond its tracking
// resources it searches the log area and invalidates them one by one).
// logEntries lists the log-to addresses the transaction wrote; tracked is
// the MC hardware's tracking capacity.
func (c *Controller) AtomTxEnd(now uint64, core int, tx uint32, logEntries []uint64, tracked int) {
	// Cancel the transaction's log writes still at the controller —
	// pending or in flight. (An in-flight entry that drained after the
	// invalidation would resurrect a stale log entry.) Only un-issued
	// cancellations save an NVM write; issued ones already accessed the
	// device.
	cancelled := c.atomScratch
	clear(cancelled)
	w := c.wpq[:0]
	c.issuedN, c.unissuedN = 0, 0
	c.nextRetire = ^uint64(0)
	for _, e := range c.wpq {
		if e.atomCore == core+1 && e.atomTx == tx && e.cause == stats.WriteLog {
			if !e.issued {
				cancelled[e.addr] = true
			}
			continue
		}
		if e.issued {
			c.issuedN++
			if e.doneAt < c.nextRetire {
				c.nextRetire = e.doneAt
			}
		} else {
			c.unissuedN++
		}
		w = append(w, e)
	}
	if len(w) != len(c.wpq) {
		c.muts++
	}
	c.wpq = w

	var zero [isa.LineSize]byte
	for _, a := range logEntries {
		if cancelled[isa.LineAddr(a)] {
			continue
		}
		if tracked > 0 {
			// Within the MC's tracking resources the clear is free: the
			// tracking table is inside the ADR persistency domain, so the
			// entry is invalid without touching NVM (the design point
			// that bounds ATOM's benefits to its available resources,
			// §4.3).
			tracked--
			c.store.Write(isa.LineAddr(a), zero[:])
			continue
		}
		// Beyond the tracking capacity: search the log area (a read) and
		// invalidate the entry with a write, through the WPQ.
		c.dev.Access(now, a, false, stats.WriteData)
		if !c.WriteLine(now, a, zero, stats.WriteTruncate) {
			c.dev.Access(now, a, true, stats.WriteTruncate)
			c.store.Write(isa.LineAddr(a), zero[:])
		}
	}
}

// PersistSig summarizes everything a power failure at this instant could
// leave on NVM: the functional store's mutation count plus the pending
// WPQ and LPQ contents (address, data, issued flag) in acceptance order.
// Two cycles with equal signatures yield byte-identical crash images
// under every CrashFault, so an exhaustive crash-point sweep can classify
// one representative per signature and skip the cycles in between. FNV-1a
// over the raw bytes keeps the value stable across runs and platforms.
//
// A sweep asks on every cycle and most cycles change nothing, so the value
// is cached until the queues mutate or the store is written.
func (c *Controller) PersistSig() uint64 {
	if w := c.store.Writes(); c.sigMuts != c.muts || c.sigWrites != w {
		c.sig, c.sigMuts, c.sigWrites = c.persistSig(), c.muts, w
	}
	return c.sig
}

// persistSig computes PersistSig from the queues and the store.
func (c *Controller) persistSig() uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	w64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ uint64(byte(v>>(8*i)))) * prime
		}
	}
	bytes := func(b []byte) {
		for _, x := range b {
			h = (h ^ uint64(x)) * prime
		}
	}
	w64(c.store.Writes())
	w64(uint64(len(c.wpq)))
	for i := range c.wpq {
		e := &c.wpq[i]
		w64(e.addr)
		if e.issued {
			w64(1)
		} else {
			w64(0)
		}
		bytes(e.data[:])
	}
	w64(uint64(len(c.lpq)))
	for i := range c.lpq {
		e := &c.lpq[i]
		w64(e.LogTo)
		bytes(e.Data[:])
	}
	return h
}

// ------------------------------------------------------------ crash image

// CrashImage returns the persistent state visible to recovery after a
// power failure at the current moment. With ADR, everything accepted into
// the WPQ and LPQ is inside the persistency domain and therefore part of
// the image; without ADR (the PMEM+pcommit configuration) only data
// already written to NVM survives.
func (c *Controller) CrashImage(adr bool) *nvm.Store {
	return c.CrashImageWith(CrashFault{ADR: adr})
}

// CrashFault describes how a power failure mangles the pending queues on
// its way to the crash image. The zero value (no ADR, no tearing) is the
// harshest clean model: both queues are lost.
type CrashFault struct {
	// ADR marks the WPQ/LPQ as inside the persistency domain: their
	// contents drain into the image. Passing false for a scheme that
	// normally relies on ADR models ADR loss (a failed backup capacitor).
	ADR bool
	// Torn, when non-nil, is consulted once per line the failure would
	// persist — in acceptance order, WPQ before LPQ; idx counts calls —
	// and returns how many leading 8-byte words of the 64-byte line
	// actually reach NVM. Values >= 8 keep the whole line, <= 0 drop it;
	// anything between leaves the line's tail at its pre-crash NVM
	// contents (a torn line write).
	//
	// Without ADR the queues are volatile and nominally persist nothing,
	// but a write the device had already begun at the failure may still
	// land a torn prefix: with Torn set, issued WPQ entries are offered to
	// the hook instead of being dropped.
	Torn func(idx int, addr uint64) int
}

// CrashImageWith is CrashImage under an explicit fault model. The image
// is a copy-on-write fork of the controller's store: the pending lines
// (and whatever recovery later writes) land in the fork, so its cost is
// those lines, not the store. It lives until the controller next writes
// the store (any later access panics); a caller that keeps an image
// across a step takes its Snapshot first.
func (c *Controller) CrashImageWith(f CrashFault) *nvm.Store {
	img := c.store.Fork()
	idx := 0
	apply := func(addr uint64, data *[isa.LineSize]byte) {
		words := 8
		if f.Torn != nil {
			words = f.Torn(idx, addr)
		}
		idx++
		if words <= 0 {
			return
		}
		if words > 8 {
			words = 8
		}
		img.Write(addr, data[:words*8])
	}
	switch {
	case f.ADR:
		for i := range c.wpq {
			apply(c.wpq[i].addr, &c.wpq[i].data)
		}
		for i := range c.lpq {
			apply(c.lpq[i].LogTo, &c.lpq[i].Data)
		}
	case f.Torn != nil:
		for i := range c.wpq {
			if c.wpq[i].issued {
				apply(c.wpq[i].addr, &c.wpq[i].data)
			}
		}
	}
	return img
}

// PendingLines returns the line addresses a power failure at this moment
// would offer to a CrashFault.Torn hook, in hook-index order. A campaign
// uses it to aim a tear at a specific queued line.
func (c *Controller) PendingLines(adr bool) []uint64 {
	var out []uint64
	if adr {
		for i := range c.wpq {
			out = append(out, c.wpq[i].addr)
		}
		for i := range c.lpq {
			out = append(out, c.lpq[i].LogTo)
		}
		return out
	}
	for i := range c.wpq {
		if c.wpq[i].issued {
			out = append(out, c.wpq[i].addr)
		}
	}
	return out
}

// ------------------------------------------------------------- next event

// NextEvent reports the controller's next possible state change strictly
// after cycle now, for the fast-forward stepper. A return of 0 means the
// controller may act at now+1 and must be ticked; otherwise the returned
// cycle is a sound lower bound: ticking the controller at any cycle in
// (now, wake) is guaranteed to change nothing.
//
// The derivation mirrors Tick exactly: read-queue slots free at read
// completion times, retires happen at issued entries' completion times,
// and the next issue is the issue gate Tick itself waits for (nextIssue).
// A gate at or before now means a write could issue but was not (the
// rate budget, or it arrived after this cycle's pass): the controller is
// active and 0 is returned.
func (c *Controller) NextEvent(now uint64) uint64 {
	wake := ^uint64(0)
	if len(c.reads) > 0 {
		wake = c.readsMin
	}
	if c.issuedN > 0 {
		wake = min(wake, c.nextRetire)
	}
	if c.unissuedN > 0 {
		wake = min(wake, c.issueGate())
	}
	if wake <= now {
		return 0
	}
	return wake
}
