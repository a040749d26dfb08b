// Package isa defines the micro-operation vocabulary shared by the
// functional layer (which records transactions as streams of loads and
// stores) and the timing layer (which executes per-scheme expansions of
// those streams on the machine model).
//
// The vocabulary covers the baseline Intel PMEM instructions the paper
// models (clwb, sfence, pcommit), the two new Proteus instructions
// (log-load and log-flush, §3.2), the transaction delimiters (tx-begin,
// tx-end), and plain loads, stores and ALU work.
package isa

import "fmt"

// Kind identifies a micro-operation.
type Kind uint8

// Micro-operation kinds.
const (
	// Nop does nothing; it is never emitted by code generation but is
	// useful as a zero value guard.
	Nop Kind = iota
	// Alu models Val cycles' worth of plain computation (address
	// arithmetic, comparisons). Each unit occupies one dispatch slot and
	// one ROB entry for one cycle.
	Alu
	// Ld is a load of Size bytes from Addr.
	Ld
	// St is a store of Size bytes of Val to Addr.
	St
	// Clwb writes the cache line containing Addr back to the memory
	// controller if it is dirty, without invalidating it. It is ordered
	// only by store-fencing operations.
	Clwb
	// Sfence retires only once all older stores have drained from the
	// store buffer and all older clwb/log-flush operations have been
	// acknowledged by the memory controller.
	Sfence
	// Pcommit additionally waits for the write pending queue to drain to
	// NVM. Deprecated by ADR; modeled for the PMEM+pcommit baseline.
	Pcommit
	// TxBegin marks the start of a durable transaction (Tx holds the ID).
	TxBegin
	// TxEnd marks the end of a durable transaction. Under hardware
	// logging schemes it triggers flushing of the transaction's dirty
	// data lines, clearing of the LLT, and flash-clearing of the
	// transaction's LPQ entries.
	TxEnd
	// LogLoad loads the 32-byte block at Addr into a log register
	// (Proteus). Addr is the log-from address.
	LogLoad
	// LogFlush writes the log register filled by the immediately
	// preceding LogLoad to the current log-to address and advances the
	// LTA register (Proteus). Addr repeats the log-from address so the
	// hardware can enforce store ordering against it.
	LogFlush
	// LockAcq and LockRel model the per-structure lock operations the
	// workloads perform. They are timed as an atomic RMW (LockAcq) and a
	// releasing store (LockRel) on Addr but never contend, because the
	// workload partitions structures across threads (see DESIGN.md §1).
	LockAcq
	LockRel
	// LogSave models the context-switch assist instruction (§4.4): it
	// saves the logging registers and forces the MC to write all LPQ
	// entries for the current transaction to NVM.
	LogSave
)

var kindNames = [...]string{
	Nop:      "nop",
	Alu:      "alu",
	Ld:       "ld",
	St:       "st",
	Clwb:     "clwb",
	Sfence:   "sfence",
	Pcommit:  "pcommit",
	TxBegin:  "tx-begin",
	TxEnd:    "tx-end",
	LogLoad:  "log-load",
	LogFlush: "log-flush",
	LockAcq:  "lock-acq",
	LockRel:  "lock-rel",
	LogSave:  "log-save",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsMem reports whether the kind accesses the memory hierarchy.
func (k Kind) IsMem() bool {
	switch k {
	case Ld, St, Clwb, LogLoad, LogFlush, LockAcq, LockRel:
		return true
	}
	return false
}

// Op is one micro-operation. Ops are kept deliberately small; traces can
// run to millions of entries.
type Op struct {
	Kind Kind
	Size uint8  // access size in bytes (memory ops)
	Tx   uint32 // enclosing transaction ID, 0 outside transactions
	Addr uint64 // target address (memory ops)
	Val  uint64 // store value, or ALU unit count
}

func (o Op) String() string {
	switch o.Kind {
	case Alu:
		return fmt.Sprintf("alu x%d", o.Val)
	case Ld, LogLoad:
		return fmt.Sprintf("%s [%#x],%d", o.Kind, o.Addr, o.Size)
	case St:
		return fmt.Sprintf("st [%#x],%d <- %#x", o.Addr, o.Size, o.Val)
	case Clwb, LogFlush, LockAcq, LockRel:
		return fmt.Sprintf("%s [%#x]", o.Kind, o.Addr)
	case TxBegin, TxEnd:
		return fmt.Sprintf("%s tx%d", o.Kind, o.Tx)
	default:
		return o.Kind.String()
	}
}

// Trace is the per-thread micro-op stream consumed by one core,
// materialized whole.
type Trace struct {
	Ops []Op
}

// Len returns the number of ops in the trace.
func (t *Trace) Len() int { return len(t.Ops) }

// Window returns the trace's ops from index from on. A materialized trace
// is an op source with one window: the core asks for the window at 0, and
// the empty one at Len ends the stream.
func (t *Trace) Window(from int) []Op { return t.Ops[from:] }

// Txns returns the number of transactions (tx-end ops) in the trace.
func (t *Trace) Txns() int {
	n := 0
	for i := range t.Ops {
		if t.Ops[i].Kind == TxEnd {
			n++
		}
	}
	return n
}

// Stats summarizes a trace's composition, mainly for tests and reports.
type TraceStats struct {
	Loads, Stores, Alus      int
	Clwbs, Sfences, Pcommits int
	LogLoads, LogFlushes     int
	TxBegins, TxEnds         int
	Locks                    int
}

// Summarize counts ops by kind.
func (t *Trace) Summarize() TraceStats {
	var s TraceStats
	for _, op := range t.Ops {
		switch op.Kind {
		case Ld:
			s.Loads++
		case St:
			s.Stores++
		case Alu:
			s.Alus += int(op.Val)
		case Clwb:
			s.Clwbs++
		case Sfence:
			s.Sfences++
		case Pcommit:
			s.Pcommits++
		case LogLoad:
			s.LogLoads++
		case LogFlush:
			s.LogFlushes++
		case TxBegin:
			s.TxBegins++
		case TxEnd:
			s.TxEnds++
		case LockAcq, LockRel:
			s.Locks++
		}
	}
	return s
}
