// Package logging turns recorded workload transactions into per-scheme
// micro-op traces:
//
//   - PMEM: software undo logging with clwb/sfence exactly following
//     Figure 2's four steps (log + persist, set logFlag, update data +
//     persist, clear logFlag), optionally with pcommit after every sfence
//     (the PMEM+pcommit baseline).
//   - PMEM+nolog: data updates and their persists only (the ideal case).
//   - ATOM: plain transactional stores — logging happens in hardware.
//   - Proteus: every store expanded into log-load, log-flush, store
//     (Figure 4); the LLT filters repeats at run time.
package logging

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/isa"
	"repro/internal/logfmt"
	"repro/internal/nvm"
	"repro/internal/workload"
)

// Generate expands every thread's recorded transactions into a trace for
// the given scheme, using the default options (the paper's configuration:
// durable-transaction persistency, dynamic LLT filtering).
func Generate(w *workload.Workload, scheme core.Scheme, cfg config.Config) ([]*isa.Trace, error) {
	return GenerateOpts(w, scheme, cfg, Options{})
}

// gen carries per-thread generation state. It emits one transaction at a
// time, into the reused window of a Stream.
type gen struct {
	win     []isa.Op
	alu     uint64
	aluTxn  uint64
	scheme  core.Scheme
	opts    Options
	img     *nvm.Store        // functional image after initialization
	overlay map[uint64]uint64 // word-level committed state on top of img (software logging only)
	swLog   uint64            // software log area base
	logFlag uint64
	addrs   addrSet // per-transaction scratch: hint lines, write lines, logged blocks
	flushes uint64  // log-flush ops emitted so far
}

func newGen(h *heap.Heap, scheme core.Scheme, cfg config.Config, img *nvm.Store, opts Options) gen {
	g := gen{
		alu:     uint64(cfg.Core.AluPerMem),
		aluTxn:  uint64(cfg.Core.AluPerTxn),
		scheme:  scheme,
		opts:    opts,
		img:     img,
		swLog:   logfmt.SWLogBase(h.Thread()),
		logFlag: logfmt.LogFlagAddr(h.Thread()),
	}
	// Only the software-logging schemes read pre-images (preWord), so only
	// they track the committed state.
	if scheme == core.PMEM || scheme == core.PMEMPcommit {
		g.overlay = make(map[uint64]uint64)
	}
	return g
}

// checkScheme rejects a scheme the generator has no expansion for, before
// any op is generated.
func checkScheme(scheme core.Scheme) error {
	switch scheme {
	case core.PMEM, core.PMEMPcommit, core.PMEMNoLog, core.ATOM, core.Proteus, core.ProteusNoLWR:
		return nil
	}
	return fmt.Errorf("logging: unknown scheme %v", scheme)
}

// txn emits one transaction. The transaction is then committed, so its
// writes fold into the committed state later pre-images read.
func (g *gen) txn(t *heap.Txn) {
	g.emitTxn(t)
	if g.overlay != nil {
		for a, v := range t.Post {
			g.overlay[a] = v
		}
	}
}

// Stream generates one thread's micro-ops a transaction at a time into a
// reused window: the op source (cpu.Source) of a core. GenerateOpts
// drains streams whole into traces.
type Stream struct {
	g    gen
	txns []*heap.Txn
	next int // transactions generated
}

// Window generates the next transaction and returns its ops, or nil once
// every transaction is out. A stream is read once, in order, so from
// (the number of ops already handed out) needs no lookup. The window is
// overwritten by the next call.
func (s *Stream) Window(from int) []isa.Op {
	if s.next == len(s.txns) {
		return nil
	}
	s.g.win = s.g.win[:0]
	s.g.txn(s.txns[s.next])
	s.next++
	return s.g.win
}

// Txns returns the number of transactions the stream generates.
func (s *Stream) Txns() int { return len(s.txns) }

// LogFlushes returns the log-flush ops generated so far, before any
// run-time LLT filtering; once the stream is exhausted it equals the
// drained trace's Summarize().LogFlushes.
func (s *Stream) LogFlushes() uint64 { return s.g.flushes }

// preWord returns the committed (pre-transaction) value of a word.
func (g *gen) preWord(addr uint64) uint64 {
	if v, ok := g.overlay[addr]; ok {
		return v
	}
	return g.img.ReadUint64(addr)
}

// preWordIn returns the pre-image of a word inside the current
// transaction, preferring the transaction's own recorded pre-image (the
// word may have been written).
func preWordIn(t *heap.Txn, g *gen, addr uint64) uint64 {
	if v, ok := t.Pre[addr]; ok {
		return v
	}
	return g.preWord(addr)
}

func (g *gen) op(o isa.Op) { g.win = append(g.win, o) }

func (g *gen) aluPad() {
	if g.alu > 0 {
		g.op(isa.Op{Kind: isa.Alu, Val: g.alu})
	}
}

func (g *gen) load(tx uint32, addr uint64) {
	g.aluPad()
	g.op(isa.Op{Kind: isa.Ld, Size: 8, Tx: tx, Addr: addr})
}

func (g *gen) store(tx uint32, addr, val uint64) {
	g.aluPad()
	g.op(isa.Op{Kind: isa.St, Size: 8, Tx: tx, Addr: addr, Val: val})
}

// storeRaw emits a store without ALU padding (log-copy loops).
func (g *gen) storeRaw(tx uint32, addr, val uint64) {
	g.op(isa.Op{Kind: isa.St, Size: 8, Tx: tx, Addr: addr, Val: val})
}

func (g *gen) clwb(addr uint64) { g.op(isa.Op{Kind: isa.Clwb, Addr: addr}) }

func (g *gen) sfence() {
	g.op(isa.Op{Kind: isa.Sfence})
	if g.scheme == core.PMEMPcommit {
		g.op(isa.Op{Kind: isa.Pcommit})
	}
}

func (g *gen) emitTxn(t *heap.Txn) {
	// Fixed per-operation harness work (input parsing, call overhead),
	// identical across schemes.
	if g.aluTxn > 0 {
		g.op(isa.Op{Kind: isa.Alu, Val: g.aluTxn})
	}
	g.op(isa.Op{Kind: isa.LockAcq, Size: 8, Addr: t.Lock})
	switch g.scheme {
	case core.PMEM, core.PMEMPcommit:
		g.emitSWLogging(t)
	case core.PMEMNoLog:
		g.emitNoLog(t)
	case core.ATOM:
		g.emitHW(t)
	case core.Proteus, core.ProteusNoLWR:
		g.emitProteus(t)
	}
	g.op(isa.Op{Kind: isa.LockRel, Size: 8, Addr: t.Lock})
}

// addrSet collects distinct addresses in first-seen order. The generator
// reuses one across transactions, so generating inside a streamed run's
// Step allocates nothing once warm.
type addrSet struct {
	seen  map[uint64]struct{}
	addrs []uint64
}

func (s *addrSet) reset() {
	if s.seen == nil {
		s.seen = make(map[uint64]struct{})
	}
	clear(s.seen)
	s.addrs = s.addrs[:0]
}

// add reports whether addr is new to the set.
func (s *addrSet) add(addr uint64) bool {
	if _, ok := s.seen[addr]; ok {
		return false
	}
	s.seen[addr] = struct{}{}
	s.addrs = append(s.addrs, addr)
	return true
}

// hintLines returns the deduplicated 64-byte lines of the transaction's
// conservative undo set, in first-declaration order. The slice is the
// generator's scratch, valid until its next use.
func (g *gen) hintLines(t *heap.Txn) []uint64 {
	g.addrs.reset()
	for _, r := range t.Hints {
		for a := isa.LineAddr(r.Addr); a < r.Addr+uint64(r.Size); a += isa.LineSize {
			g.addrs.add(a)
		}
	}
	return g.addrs.addrs
}

// writeLines returns the distinct cache lines the transaction wrote, in
// first-write order. The slice is the generator's scratch, valid until
// its next use.
func (g *gen) writeLines(t *heap.Txn) []uint64 {
	g.addrs.reset()
	for _, a := range t.Ops {
		if a.Kind == heap.Store {
			g.addrs.add(isa.LineAddr(a.Addr))
		}
	}
	return g.addrs.addrs
}

// emitSWLogging generates Figure 2's fail-safe undo logging.
func (g *gen) emitSWLogging(t *heap.Txn) {
	tx := t.ID
	g.op(isa.Op{Kind: isa.TxBegin, Tx: tx})

	// Step 1: create and persist the undo log. One two-line entry per
	// conservatively-hinted 64-byte line: read the original data, store
	// the metadata and data words, flush both lines.
	lines := g.hintLines(t)
	for i, line := range lines {
		// The pre-image words double as the entry's data checksum input,
		// so compute them before emitting any ops (the op sequence —
		// 8 loads, 4 meta stores, 8 data stores — is unchanged).
		var pre [8]uint64
		var preBytes [isa.LineSize]byte
		for w := 0; w < 8; w++ {
			pre[w] = preWordIn(t, g, line+uint64(w*8))
			putWord(preBytes[w*8:], pre[w])
		}
		meta := logfmt.EncodePairMeta(logfmt.PairEntry{
			From: line, Tx: uint64(tx), Len: isa.LineSize,
			DataCRC: logfmt.PairDataCRC(preBytes[:]),
		})
		metaAddr := g.swLog + uint64(i)*logfmt.PairEntrySize
		dataAddr := metaAddr + isa.LineSize
		// Read the original line (8 words) and write it to the log.
		for w := 0; w < 8; w++ {
			g.load(tx, line+uint64(w*8))
		}
		for w := 0; w < 4; w++ {
			g.storeRaw(tx, metaAddr+uint64(w*8), wordOf(meta[:], w))
		}
		for w := 0; w < 8; w++ {
			g.storeRaw(tx, dataAddr+uint64(w*8), pre[w])
		}
		g.clwb(metaAddr)
		g.clwb(dataAddr)
		if g.opts.Model == ModelStrict {
			g.sfence()
		}
	}
	g.sfence()

	// Step 2: set the logFlag and persist. The transaction ID and entry
	// count share one 8-byte word so they persist atomically.
	g.store(tx, g.logFlag, logfmt.PackLogFlag(tx, len(lines)))
	g.clwb(g.logFlag)
	g.sfence()

	// Step 3: the data updates, then persist every written line (under
	// strict persistency each store already persisted individually).
	g.emitBody(t)
	if g.opts.Model != ModelStrict {
		for _, line := range g.writeLines(t) {
			g.clwb(line)
		}
	}
	g.sfence()

	// Step 4: clear the logFlag and persist.
	g.store(tx, g.logFlag, 0)
	g.clwb(g.logFlag)
	g.sfence()

	g.op(isa.Op{Kind: isa.TxEnd, Tx: tx})
}

// emitNoLog generates the ideal case: data updates and their persists,
// with no logging at all (not failure safe).
func (g *gen) emitNoLog(t *heap.Txn) {
	g.op(isa.Op{Kind: isa.TxBegin, Tx: t.ID})
	g.emitBody(t)
	for _, line := range g.writeLines(t) {
		g.clwb(line)
	}
	g.sfence()
	g.op(isa.Op{Kind: isa.TxEnd, Tx: t.ID})
}

// emitHW generates the ATOM form: plain transactional loads and stores;
// the hardware logs and makes the transaction durable at tx-end.
func (g *gen) emitHW(t *heap.Txn) {
	g.op(isa.Op{Kind: isa.TxBegin, Tx: t.ID})
	g.emitBody(t)
	g.op(isa.Op{Kind: isa.TxEnd, Tx: t.ID})
}

// emitProteus generates the Figure 4 expansion: each store becomes
// log-load, log-flush, store. The LLT filters duplicates dynamically —
// unless StaticLogElim emulates a perfect-alias-knowledge compiler that
// never emits the duplicate pairs in the first place (§4.2).
func (g *gen) emitProteus(t *heap.Txn) {
	tx := t.ID
	g.op(isa.Op{Kind: isa.TxBegin, Tx: tx})
	if g.opts.StaticLogElim {
		g.addrs.reset() // the blocks logged so far in this transaction
	}
	for _, a := range t.Ops {
		switch a.Kind {
		case heap.Load:
			g.load(tx, a.Addr)
		case heap.Store:
			block := isa.LogBlockAddr(a.Addr)
			if !g.opts.StaticLogElim || g.addrs.add(block) {
				g.op(isa.Op{Kind: isa.LogLoad, Size: isa.LogBlockSize, Tx: tx, Addr: block})
				g.op(isa.Op{Kind: isa.LogFlush, Size: isa.LogBlockSize, Tx: tx, Addr: block})
				g.flushes++
			}
			g.store(tx, a.Addr, a.Val)
		}
	}
	g.op(isa.Op{Kind: isa.TxEnd, Tx: tx})
}

// emitBody replays the transaction's recorded accesses. Under strict
// persistency every persistent store is individually persisted before the
// next instruction (§2.1's first column).
func (g *gen) emitBody(t *heap.Txn) {
	strict := g.opts.Model == ModelStrict &&
		(g.scheme == core.PMEM || g.scheme == core.PMEMPcommit)
	for _, a := range t.Ops {
		switch a.Kind {
		case heap.Load:
			g.load(t.ID, a.Addr)
		case heap.Store:
			g.store(t.ID, a.Addr, a.Val)
			if strict && isa.IsPersistentAddr(a.Addr) {
				g.clwb(a.Addr)
				g.sfence()
			}
		}
	}
}

// wordOf extracts little-endian word w from a byte slice.
func wordOf(b []byte, w int) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[w*8+i])
	}
	return v
}

// putWord stores a little-endian word into a byte slice.
func putWord(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
