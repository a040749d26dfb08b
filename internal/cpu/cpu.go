// Package cpu models the out-of-order cores of Table 1 (5-wide
// dispatch/retire, 224-entry ROB, 72/56-entry load/store queues) at the
// level of detail the paper's results depend on: in-order dispatch and
// retirement with resource-pressure stalls, a post-retirement store buffer
// with in-order release to the cache, PMEM instruction semantics (clwb,
// sfence, pcommit), ATOM's log-before-store-retirement rule, and the
// Proteus core structures — log registers, the LogQ and the LLT (§4.2).
package cpu

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/memctrl"
	"repro/internal/stats"
)

// Mode selects how the core treats transactional stores.
type Mode int

const (
	// ModePlain executes the trace as-is: logging, if any, is explicit in
	// the instruction stream (the software schemes).
	ModePlain Mode = iota
	// ModeATOM creates a log entry in hardware before each transactional
	// store retires, holding the store until the MC acknowledges the
	// entry (posted-log), with entries created at the MC (source-log).
	ModeATOM
	// ModeProteus executes log-load/log-flush with the LR file, LogQ and
	// LLT, and performs the tx-end actions of §4.2-4.3.
	ModeProteus
)

func (m Mode) String() string {
	switch m {
	case ModePlain:
		return "plain"
	case ModeATOM:
		return "atom"
	case ModeProteus:
		return "proteus"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Commit records the cycle at which a transaction became durable.
type Commit struct {
	Tx    uint32
	Cycle uint64
}

type robEntry struct {
	op       isa.Op
	issued   bool   // memory op sent to the hierarchy
	doneAt   uint64 // execution completion (valid once issued)
	filtered bool   // Proteus: log op absorbed by the LLT
	lr       int    // Proteus: log register index, -1 otherwise
	lqe      int    // Proteus: LogQ entry index, -1 otherwise
	lqSeq    uint64 // sequence number guarding LogQ slot reuse
}

type sbKind uint8

const (
	sbStore sbKind = iota
	sbClwb
)

type sbEntry struct {
	kind sbKind
	addr uint64
	size int
	val  uint64
	tx   uint32
}

// lrSlot is one Proteus log register: it keeps the log data and log-from
// address while the logging instructions are in flight (§4.2).
type lrSlot struct {
	busy     bool
	filtered bool
	issued   bool
	doneAt   uint64
	addr     uint64 // log-from 32B block
	data     [isa.LogBlockSize]byte
}

// lqEntry is one LogQ entry tracking an in-flight log-flush (§4.2).
type lqEntry struct {
	valid   bool
	lr      int
	logFrom uint64
	logTo   uint64
	tx      uint32
	hasData bool
	data    [isa.LogBlockSize]byte
	issued  bool
	ackAt   uint64
	seq     uint64
}

// atomReq is one serialized ATOM log-creation request.
type atomReq struct {
	tx       uint32
	metaAddr uint64
	meta     [isa.LineSize]byte
	data     [isa.LineSize]byte
	sent     bool
	acked    bool
	ackAt    uint64
}

// txState is the per-transaction bookkeeping the hardware keeps. It is
// created when tx-begin dispatches (dispatch runs ahead of retirement, so
// a transaction's stores may enter the pipeline while the previous
// transaction is still completing) and destroyed when tx-end retires.
type txState struct {
	tx        uint32
	dirty     u64set // lines already recorded in dirtyList
	dirtyList []uint64
	// Proteus.
	logCount  int
	lastLogTo uint64
	// ATOM.
	atomLogged  u64kv // line -> index into atomReqs
	atomReqs    []*atomReq
	atomEntries []uint64 // metadata-line addresses for truncation
}

// Core is one simulated out-of-order core.
type Core struct {
	id   int
	cfg  config.Config
	mode Mode
	lwr  bool // Proteus log write removal (LPQ) enabled

	hier *cache.Hierarchy
	mc   *memctrl.Controller
	st   *stats.Core

	// Fetch: the op at pc of the current window is the next to dispatch.
	// base counts the ops of the windows before it, so base+pc is the
	// op's index in the whole stream.
	src     Source
	window  []isa.Op
	base    int
	pc      int
	aluLeft uint64

	rob      []robEntry
	robHead  int
	robCount int
	unissued int // ROB entries awaiting a hierarchy slot (issuePending gate)

	loads  int // LoadQ occupancy
	stores int // StoreQ occupancy (ROB stores + store buffer)

	// Store buffer as a fixed-capacity ring (StoreBuf entries).
	sbq         []sbEntry
	sbHead      int
	sbCount     int
	sbBusyUntil uint64
	persistAcks []uint64

	// Pointer-chase serialization: a load to a line unrelated to any
	// recently loaded line (neither the same line nor a sequential
	// successor) depends on the previous load's completion — its address
	// came from that load. Tree traversals serialize; streaming over a
	// node's lines, or alternating between a few buffers, does not.
	recentLoads  [4]recentLoad
	recentNext   int
	lastLoadDone uint64

	mcTrip uint64

	// Transaction state: active transactions, oldest first. The last is
	// the one the front end dispatches for; the first is the one
	// retirement completes.
	txs     []*txState
	txPool  []*txState // retired txStates kept for reuse
	curTx   uint32
	Commits []Commit

	// Proteus state.
	lr       []lrSlot
	lrFIFO   []int // dispatched log-loads awaiting their log-flush
	logQ     []lqEntry
	lqCount  int // valid LogQ entries
	lqSeq    uint64
	llt      *llt
	logStart uint64
	logEnd   uint64
	curlog   uint64

	// ATOM state.
	atomQ      []*atomReq // serialized in-flight log-creation requests
	reqPool    []*atomReq // completed requests kept for reuse
	atomCursor uint64

	// tx-end state machine.
	txEndStage  int
	txFlushList []uint64
	txFlushIdx  int
	txFlushMax  uint64 // latest flush ack
	txMarkDone  bool

	pcommitForcing bool
	pcommitSeq     uint64
	finished       bool
	doneCycle      uint64
}

// Source supplies one core's micro-ops in program order, a window at a
// time. A materialized isa.Trace is a source with one window; a streamed
// source generates each window as the core reaches it.
type Source interface {
	// Window returns the ops that follow the stream's first from ops, or
	// an empty window once the stream is exhausted. The core asks for
	// consecutive windows (from is the total length of those already
	// returned), and a window stays valid until the next call.
	Window(from int) []isa.Op
	// Txns returns the number of transactions (tx-end ops) in the whole
	// stream, which pre-sizes the commit log.
	Txns() int
}

// New builds a core executing the ops of src (nil: an idle core) in the
// given mode. lwr enables Proteus's log write removal (the LPQ path); it
// is ignored in other modes. The core counts into st, which must not be
// nil.
func New(id int, cfg config.Config, mode Mode, lwr bool, hier *cache.Hierarchy, mc *memctrl.Controller, src Source, st *stats.Core) *Core {
	logStart, logEnd := isa.LogWindow(id)
	nTx := 0
	if src != nil {
		nTx = src.Txns()
	}
	c := &Core{
		id: id, cfg: cfg, mode: mode, lwr: lwr,
		hier: hier, mc: mc, st: st, src: src,
		rob:         make([]robEntry, cfg.Core.ROB),
		sbq:         make([]sbEntry, cfg.Core.StoreBuf),
		persistAcks: make([]uint64, 0, 64),
		mcTrip:      uint64(cfg.L3.Latency + cfg.Mem.L3ToMC),
		txs:         make([]*txState, 0, 8),
		Commits:     make([]Commit, 0, nTx),
		lr:          make([]lrSlot, cfg.Proteus.LogRegs),
		lrFIFO:      make([]int, 0, cfg.Proteus.LogRegs),
		logQ:        make([]lqEntry, cfg.Proteus.LogQ),
		llt:         newLLT(cfg.Proteus.LLTSize, cfg.Proteus.LLTWays),
		logStart:    logStart,
		logEnd:      logEnd,
		curlog:      logStart,
		atomQ:       make([]*atomReq, 0, 32),
		atomCursor:  logStart,
	}
	c.refill()
	return c
}

// refill replaces a spent window with the source's next one; an empty
// one ends the stream. It runs at construction and after every dispatch
// advance, so the window holds the op at pc unless the stream is
// exhausted: Tick and NextEvent read the window without refilling.
func (c *Core) refill() {
	if c.pc < len(c.window) || c.src == nil {
		return
	}
	c.base += c.pc
	c.pc = 0
	c.window = c.src.Window(c.base)
	if len(c.window) == 0 {
		c.src = nil
	}
}

// advance moves fetch past the op just dispatched.
func (c *Core) advance() {
	c.pc++
	if c.pc == len(c.window) {
		c.refill()
	}
}

// ------------------------------------------------------- reusable storage

// sbAt returns the i-th store-buffer entry from the head.
func (c *Core) sbAt(i int) *sbEntry {
	idx := c.sbHead + i
	if idx >= len(c.sbq) {
		idx -= len(c.sbq)
	}
	return &c.sbq[idx]
}

func (c *Core) sbPush(e sbEntry) {
	idx := c.sbHead + c.sbCount
	if idx >= len(c.sbq) {
		idx -= len(c.sbq)
	}
	c.sbq[idx] = e
	c.sbCount++
}

func (c *Core) sbPop() {
	c.sbHead++
	if c.sbHead == len(c.sbq) {
		c.sbHead = 0
	}
	c.sbCount--
}

// newTxState returns a cleared per-transaction record, reusing storage
// from completed transactions so steady-state stepping does not allocate.
func (c *Core) newTxState(tx uint32) *txState {
	var t *txState
	if n := len(c.txPool); n > 0 {
		t = c.txPool[n-1]
		c.txPool = c.txPool[:n-1]
	} else {
		t = &txState{}
	}
	t.tx = tx
	return t
}

// popTx retires the oldest transaction and recycles its storage. Its
// atomReqs are guaranteed out of atomQ: every transactional store retired
// before tx-end, and store retirement requires the popped-and-acked state.
func (c *Core) popTx() {
	t := c.txs[0]
	copy(c.txs, c.txs[1:])
	c.txs[len(c.txs)-1] = nil
	c.txs = c.txs[:len(c.txs)-1]
	for _, r := range t.atomReqs {
		*r = atomReq{}
		c.reqPool = append(c.reqPool, r)
	}
	t.dirty.reset()
	t.dirtyList = t.dirtyList[:0]
	t.atomLogged.reset()
	t.atomReqs = t.atomReqs[:0]
	t.atomEntries = t.atomEntries[:0]
	t.logCount = 0
	t.lastLogTo = 0
	t.tx = 0
	c.txPool = append(c.txPool, t)
}

func (c *Core) newAtomReq() *atomReq {
	if n := len(c.reqPool); n > 0 {
		r := c.reqPool[n-1]
		c.reqPool = c.reqPool[:n-1]
		return r
	}
	return &atomReq{}
}

// Done reports whether the core has drained its trace and all buffers.
func (c *Core) Done() bool { return c.finished }

// DoneCycle returns the cycle at which the core drained (valid once Done).
func (c *Core) DoneCycle() uint64 { return c.doneCycle }

// Occupancy returns the instantaneous ROB, load-queue, store-queue and
// store-buffer occupancy — the per-epoch snapshot the trace layer samples.
func (c *Core) Occupancy() (rob, loadQ, storeQ, storeBuf int) {
	return c.robCount, c.loads, c.stores, c.sbCount
}

// LogQDepth returns the number of in-flight LogQ entries (Proteus).
func (c *Core) LogQDepth() int { return c.lqCount }

// FreeLogRegs returns the number of free Proteus log registers.
func (c *Core) FreeLogRegs() int {
	n := 0
	for i := range c.lr {
		if !c.lr[i].busy {
			n++
		}
	}
	return n
}

// ATOMInFlight returns the outstanding hardware log-creation requests
// (ATOM's serialized request queue).
func (c *Core) ATOMInFlight() int { return len(c.atomQ) }

// dtx returns the transaction the front end is dispatching for, nil
// outside transactions.
func (c *Core) dtx() *txState {
	if len(c.txs) == 0 {
		return nil
	}
	return c.txs[len(c.txs)-1]
}

// rtx returns the transaction retirement is completing, nil when none.
func (c *Core) rtx() *txState {
	if len(c.txs) == 0 {
		return nil
	}
	return c.txs[0]
}

// txFor finds the active transaction with the given ID.
func (c *Core) txFor(tx uint32) *txState {
	for _, t := range c.txs {
		if t.tx == tx {
			return t
		}
	}
	return nil
}

// Tick advances the core by one cycle.
func (c *Core) Tick(now uint64) {
	if c.finished {
		return
	}
	c.issuePending(now)
	c.tickLogQ(now)
	c.tickAtomQ(now)
	c.retire(now)
	c.drainStoreBuffer(now)
	c.dispatch(now)

	if c.pc >= len(c.window) && c.robCount == 0 && c.sbCount == 0 &&
		c.logQEmpty() && len(c.atomQ) == 0 {
		c.finished = true
		c.doneCycle = now
		c.st.Cycles = now
	}
}

func (c *Core) logQEmpty() bool { return c.lqCount == 0 }

// logQEmptyFor reports whether no LogQ entry of tx remains in flight.
func (c *Core) logQEmptyFor(tx uint32) bool {
	for i := range c.logQ {
		if c.logQ[i].valid && c.logQ[i].tx == tx {
			return false
		}
	}
	return true
}

// robAt returns the i-th entry from the head.
func (c *Core) robAt(i int) *robEntry {
	idx := c.robHead + i
	if idx >= len(c.rob) {
		idx -= len(c.rob)
	}
	return &c.rob[idx]
}

func (c *Core) robPush(e robEntry) *robEntry {
	idx := c.robHead + c.robCount
	if idx >= len(c.rob) {
		idx -= len(c.rob)
	}
	c.rob[idx] = e
	c.robCount++
	return &c.rob[idx]
}

func (c *Core) robPop() {
	c.robHead++
	if c.robHead == len(c.rob) {
		c.robHead = 0
	}
	c.robCount--
}

// forwardedPeek reads the current architectural value of [addr,
// addr+size): the cache/memory contents patched with not-yet-drained older
// stores from the store buffer and the ROB, in program order. This is the
// pre-image hardware log creation must capture.
func (c *Core) forwardedPeek(addr uint64, size int, buf []byte) {
	c.hier.Peek(addr, size, buf)
	apply := func(sAddr uint64, sSize int, val uint64) {
		lo := max64(sAddr, addr)
		hi := min64(sAddr+uint64(sSize), addr+uint64(size))
		for a := lo; a < hi; a++ {
			buf[a-addr] = byte(val >> (8 * (a - sAddr)))
		}
	}
	for i := 0; i < c.sbCount; i++ {
		if e := c.sbAt(i); e.kind == sbStore {
			apply(e.addr, e.size, e.val)
		}
	}
	for i := 0; i < c.robCount; i++ {
		e := c.robAt(i)
		if e.op.Kind == isa.St {
			apply(e.op.Addr, int(e.op.Size), e.op.Val)
		}
	}
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// ---------------------------------------------------------------- dispatch

func (c *Core) stall(cause stats.StallCause) {
	c.st.StallCycles[cause]++
}

func (c *Core) dispatch(now uint64) {
	slots := c.cfg.Core.Width
	for slots > 0 {
		if c.pc >= len(c.window) {
			return
		}
		op := c.window[c.pc]

		if c.robCount >= len(c.rob) {
			c.stall(stats.StallROB)
			return
		}

		switch op.Kind {
		case isa.Alu:
			if c.aluLeft == 0 {
				c.aluLeft = op.Val
				if c.aluLeft == 0 {
					c.aluLeft = 1
				}
			}
			take := uint64(slots)
			if take > c.aluLeft {
				take = c.aluLeft
			}
			c.aluLeft -= take
			slots -= int(take)
			if c.aluLeft > 0 {
				return // ran out of slots mid-op
			}
			c.robPush(robEntry{op: op, issued: true, doneAt: now + 1, lr: -1, lqe: -1})
			c.advance()
			continue

		case isa.Ld, isa.LockAcq:
			if c.loads >= c.cfg.Core.LoadQ {
				c.stall(stats.StallLoadQ)
				return
			}
			e := c.robPush(robEntry{op: op, lr: -1, lqe: -1})
			c.loads++
			c.issueLoad(now, e)
			if !e.issued {
				c.unissued++
			}

		case isa.LogLoad:
			if c.loads >= c.cfg.Core.LoadQ {
				c.stall(stats.StallLoadQ)
				return
			}
			if c.mode != ModeProteus {
				// Treated as a plain load outside Proteus mode.
				e := c.robPush(robEntry{op: op, lr: -1, lqe: -1})
				c.loads++
				c.issueLoad(now, e)
				if !e.issued {
					c.unissued++
				}
				break
			}
			lri := c.freeLR()
			if lri < 0 {
				c.stall(stats.StallLogReg)
				return
			}
			c.dispatchLogLoad(now, op, lri)

		case isa.St, isa.LockRel:
			if c.stores >= c.cfg.Core.StoreQ {
				c.stall(stats.StallStoreQ)
				return
			}
			if op.Kind == isa.St && op.Tx != 0 && isa.IsPersistentAddr(op.Addr) {
				if t := c.dtx(); t != nil {
					line := isa.LineAddr(op.Addr)
					if t.dirty.add(line) {
						t.dirtyList = append(t.dirtyList, line)
					}
					if c.mode == ModeATOM {
						c.atomMaybeLog(now, t, line, op.Tx)
					}
				}
			}
			c.robPush(robEntry{op: op, issued: true, doneAt: now + 1, lr: -1, lqe: -1})
			c.stores++

		case isa.Clwb:
			if c.stores >= c.cfg.Core.StoreQ {
				c.stall(stats.StallStoreQ)
				return
			}
			c.robPush(robEntry{op: op, issued: true, doneAt: now + 1, lr: -1, lqe: -1})
			c.stores++

		case isa.LogFlush:
			if c.mode != ModeProteus {
				// No-op outside Proteus mode (should not be generated).
				c.robPush(robEntry{op: op, issued: true, doneAt: now + 1, lr: -1, lqe: -1})
				break
			}
			if !c.dispatchLogFlush(now, op) {
				return // stalled on LogQ
			}

		case isa.TxBegin:
			c.txs = append(c.txs, c.newTxState(op.Tx))
			c.robPush(robEntry{op: op, issued: true, doneAt: now + 1, lr: -1, lqe: -1})

		case isa.TxEnd:
			// Clear the LLT in dispatch (program) order so the next
			// transaction cannot hit stale entries (§4.2).
			if c.mode == ModeProteus {
				c.llt.Clear()
			}
			c.robPush(robEntry{op: op, issued: true, doneAt: now + 1, lr: -1, lqe: -1})

		default:
			// Sfence, Pcommit, LogSave, Nop.
			c.robPush(robEntry{op: op, issued: true, doneAt: now + 1, lr: -1, lqe: -1})
		}
		c.advance()
		slots--
	}
}

// issueLoad sends a load to the hierarchy, retrying later on backpressure.
// Data loads chain behind the previous load when they look like a pointer
// dereference (a jump to a line unrelated to any recent load).
func (c *Core) issueLoad(now uint64, e *robEntry) {
	at := now
	line := isa.LineAddr(e.op.Addr)
	data := e.op.Kind == isa.Ld && isa.IsPersistentAddr(e.op.Addr)
	if data {
		chained := true
		for _, r := range c.recentLoads {
			if line == r.line || line == r.line+isa.LineSize {
				chained = false
				break
			}
		}
		if chained && c.lastLoadDone > at {
			at = c.lastLoadDone
		}
	}
	done, ok := c.hier.Load(at, e.op.Addr, int(e.op.Size), nil)
	if !ok {
		return // remain unissued; retried by issuePending
	}
	e.issued = true
	e.doneAt = done
	if data {
		c.recentLoads[c.recentNext] = recentLoad{line: line}
		c.recentNext = (c.recentNext + 1) % len(c.recentLoads)
		c.lastLoadDone = done
	}
}

// issuePending retries memory operations that were refused by the
// hierarchy (memory-controller queue backpressure). The unissued counter
// makes the common case — nothing to retry — a single compare instead of
// a full ROB scan every cycle.
func (c *Core) issuePending(now uint64) {
	if c.unissued == 0 {
		return
	}
	left := c.unissued
	for i := 0; i < c.robCount && left > 0; i++ {
		e := c.robAt(i)
		if e.issued {
			continue
		}
		left--
		switch e.op.Kind {
		case isa.Ld, isa.LockAcq:
			c.issueLoad(now, e)
		case isa.LogLoad:
			if c.mode == ModeProteus {
				c.issueProteusLogLoad(now, e)
			} else {
				c.issueLoad(now, e)
			}
		}
		if e.issued {
			c.unissued--
		}
	}
}

// ----------------------------------------------------------------- retire

func (c *Core) retire(now uint64) {
	for n := 0; n < c.cfg.Core.Width && c.robCount > 0; n++ {
		e := c.robAt(0)
		if !e.issued || e.doneAt > now {
			return
		}
		switch e.op.Kind {
		case isa.St, isa.LockRel:
			if c.sbCount >= c.cfg.Core.StoreBuf {
				return
			}
			if c.mode == ModeATOM && e.op.Kind == isa.St && e.op.Tx != 0 && isa.IsPersistentAddr(e.op.Addr) {
				if !c.atomAcked(e.op.Tx, isa.LineAddr(e.op.Addr), now) {
					c.st.ATOMLogDelays++
					return
				}
			}
			c.sbPush(sbEntry{kind: sbStore, addr: e.op.Addr, size: int(e.op.Size), val: e.op.Val, tx: e.op.Tx})

		case isa.Clwb:
			if c.sbCount >= c.cfg.Core.StoreBuf {
				return
			}
			c.sbPush(sbEntry{kind: sbClwb, addr: e.op.Addr})
			c.st.Clwbs++

		case isa.Sfence:
			if !c.persistComplete(now) {
				c.st.SfenceWait++
				return
			}
			c.st.Sfences++

		case isa.Pcommit:
			if !c.pcommitForcing {
				if !c.persistComplete(now) {
					c.st.PcommitWait++
					return
				}
				// All prior persists accepted; now drain what is pending.
				c.pcommitForcing = true
				c.pcommitSeq = c.mc.CurSeq()
				c.mc.ForceDrain(true)
			}
			if !c.mc.WPQDrainedThrough(c.pcommitSeq) {
				c.st.PcommitWait++
				return
			}
			if c.pcommitForcing {
				c.pcommitForcing = false
				c.mc.ForceDrain(false)
			}

		case isa.TxBegin:
			c.curTx = e.op.Tx

		case isa.TxEnd:
			if !c.retireTxEnd(now, e.op.Tx) {
				c.st.TxEndWait++
				return
			}

		case isa.LogLoad:
			// Data arrived; nothing else to do at retirement.

		case isa.LogFlush:
			// Log registers are recycled by the LogQ data copy (or at
			// dispatch for filtered pairs); nothing to do here.

		case isa.LogSave:
			if !c.retireLogSave(now) {
				return
			}
		}

		if e.op.Kind == isa.Ld || e.op.Kind == isa.LockAcq || e.op.Kind == isa.LogLoad {
			c.loads--
		}
		c.st.Retired++
		if e.op.Kind == isa.St {
			c.st.Stores++
		}
		c.robPop()
	}
}

// persistComplete reports whether all older stores have drained and all
// issued clwb/persist operations have been acknowledged (sfence's retire
// condition).
func (c *Core) persistComplete(now uint64) bool {
	if c.sbCount > 0 {
		return false
	}
	keep := c.persistAcks[:0]
	for _, a := range c.persistAcks {
		if a > now {
			keep = append(keep, a)
		}
	}
	c.persistAcks = keep
	return len(c.persistAcks) == 0
}

// retireLogSave implements the context-switch assist (§4.4): wait for the
// store buffer and LogQ to drain, then force the MC to write the current
// transaction's LPQ entries to NVM.
func (c *Core) retireLogSave(now uint64) bool {
	if c.sbCount > 0 || !c.logQEmpty() {
		return false
	}
	c.mc.DrainLog(now, c.id, c.curTx)
	c.llt.Clear()
	return true
}

// ------------------------------------------------------------ store buffer

// drainStoreBuffer releases the store-buffer head to the cache, one entry
// per cycle, honoring the Proteus ordering rule: a store whose log-from
// block has an unacknowledged log-flush in the LogQ is held (§4.2).
func (c *Core) drainStoreBuffer(now uint64) {
	if c.sbCount == 0 || c.sbBusyUntil > now {
		return
	}
	e := *c.sbAt(0)
	switch e.kind {
	case sbStore:
		if c.mode == ModeProteus && e.tx != 0 && isa.IsPersistentAddr(e.addr) {
			if c.logBlocked(e.addr) {
				return
			}
		}
		var buf [8]byte
		n := e.size
		if n > 8 {
			n = 8
		}
		for i := 0; i < n; i++ {
			buf[i] = byte(e.val >> (8 * i))
		}
		if _, ok := c.hier.Store(now, e.addr, buf[:n]); !ok {
			return // retry next cycle
		}
		c.sbBusyUntil = now + 1
	case sbClwb:
		done, _, ok := c.hier.Clwb(now, e.addr)
		if !ok {
			c.st.SBWPQBlocked++
			return
		}
		c.persistAcks = append(c.persistAcks, done)
		c.sbBusyUntil = now + 1
	}
	c.sbPop()
	c.stores--
}

// logBlocked reports whether an unacknowledged log-flush covers the
// 32-byte block the store touches.
func (c *Core) logBlocked(addr uint64) bool {
	b := isa.LogBlockAddr(addr)
	for i := range c.logQ {
		q := &c.logQ[i]
		if q.valid && q.logFrom == b {
			return true
		}
	}
	return false
}

// recentLoad is one slot in the pointer-chase recency window.
type recentLoad struct {
	line uint64
}
