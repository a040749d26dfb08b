// Package litmus is a persistency-model litmus harness: it enumerates
// tiny programs from a template grammar (2–4 persistent stores over two
// variables, up to two threads, each thread's stores split across up to
// two durable transactions), compiles each into the workload
// representation the simulator runs, sweeps every distinct persist state
// of every run under the crash campaign's fault models, and checks each
// recovered image against the exact set of post-crash states the
// scheme's declared ordering axioms (core.OrderingRules) permit. Any
// divergence is a bug in the simulator, the recovery path, or the axioms.
// Each compiled (program, scheme) case is a crashcampaign.Target judged by
// the axioms, so a divergence is classified, minimized (crash cycle
// bisected, fault mask shrunk) and dumped as a reproducer exactly like a
// campaign failure, and replays through the same command.
//
// Everything the harness computes is deterministic in (config, seed): the
// report bytes are identical at any worker count and under either cycle
// stepper.
package litmus

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/crashcampaign"
	"repro/internal/heap"
	"repro/internal/isa"
	"repro/internal/nvm"
	"repro/internal/workload"
)

// Layout places the two per-thread variables in the heap.
type Layout int

const (
	// LayoutSame puts x and y on one cache line, 32 bytes apart — the
	// same line (one WPQ entry, one torn-write victim) but distinct 32B
	// log blocks for the hardware schemes.
	LayoutSame Layout = iota
	// LayoutCross puts x and y on different cache lines.
	LayoutCross
)

func (l Layout) String() string {
	if l == LayoutSame {
		return "same"
	}
	return "cross"
}

// varNames maps variable indexes to their grammar letters.
const varNames = "xy"

// ThreadProg is one thread's program: an ordered list of stores (each to
// variable x or y) partitioned into one or two durable transactions.
type ThreadProg struct {
	// Vars holds the target variable index (0 = x, 1 = y) of each store
	// in program order.
	Vars []int
	// Cut splits Vars into transactions: Vars[:Cut] is the first
	// transaction, Vars[Cut:] the second. Cut == len(Vars) means a single
	// transaction.
	Cut int
}

// Txns returns the per-transaction store lists.
func (tp ThreadProg) Txns() [][]int {
	if tp.Cut >= len(tp.Vars) {
		return [][]int{tp.Vars}
	}
	return [][]int{tp.Vars[:tp.Cut], tp.Vars[tp.Cut:]}
}

func (tp ThreadProg) encode() string {
	var b strings.Builder
	for i, v := range tp.Vars {
		if i == tp.Cut {
			b.WriteByte(';')
		}
		b.WriteByte(varNames[v])
	}
	return b.String()
}

// Program is one litmus test: a layout plus one or two thread programs.
type Program struct {
	Layout  Layout
	Threads []ThreadProg
}

// Name returns the program's canonical encoding, e.g. "Ps:xy;x|y" —
// layout prefix (s = same line, c = cross line), threads separated by
// "|", transactions within a thread separated by ";", stores spelled as
// their target variable letters.
func (p Program) Name() string {
	var b strings.Builder
	b.WriteByte('P')
	if p.Layout == LayoutSame {
		b.WriteByte('s')
	} else {
		b.WriteByte('c')
	}
	b.WriteByte(':')
	for t, tp := range p.Threads {
		if t > 0 {
			b.WriteByte('|')
		}
		b.WriteString(tp.encode())
	}
	return b.String()
}

func (p Program) String() string { return p.Name() }

// Stores returns the total store count across threads.
func (p Program) Stores() int {
	n := 0
	for _, tp := range p.Threads {
		n += len(tp.Vars)
	}
	return n
}

// Parse decodes a Name() encoding back into a Program.
func Parse(s string) (Program, error) {
	rest, ok := strings.CutPrefix(s, "P")
	if !ok || len(rest) < 2 || rest[1] != ':' {
		return Program{}, fmt.Errorf("litmus: malformed program %q", s)
	}
	var p Program
	switch rest[0] {
	case 's':
		p.Layout = LayoutSame
	case 'c':
		p.Layout = LayoutCross
	default:
		return Program{}, fmt.Errorf("litmus: unknown layout %q in %q", rest[0], s)
	}
	for _, enc := range strings.Split(rest[2:], "|") {
		var tp ThreadProg
		tp.Cut = -1
		for _, c := range enc {
			switch c {
			case 'x':
				tp.Vars = append(tp.Vars, 0)
			case 'y':
				tp.Vars = append(tp.Vars, 1)
			case ';':
				if tp.Cut >= 0 {
					return Program{}, fmt.Errorf("litmus: more than two transactions in %q", s)
				}
				tp.Cut = len(tp.Vars)
			default:
				return Program{}, fmt.Errorf("litmus: unexpected %q in %q", c, s)
			}
		}
		if tp.Cut < 0 {
			tp.Cut = len(tp.Vars)
		}
		if len(tp.Vars) == 0 || tp.Cut == 0 || tp.Cut == len(tp.Vars) && strings.Contains(enc, ";") {
			return Program{}, fmt.Errorf("litmus: empty transaction in %q", s)
		}
		p.Threads = append(p.Threads, tp)
	}
	if len(p.Threads) < 1 || len(p.Threads) > 2 {
		return Program{}, fmt.Errorf("litmus: %d threads in %q, want 1 or 2", len(p.Threads), s)
	}
	if n := p.Stores(); n < minStores || n > maxStores {
		return Program{}, fmt.Errorf("litmus: %d stores in %q, want %d..%d", n, s, minStores, maxStores)
	}
	return p, nil
}

// initVal returns thread t's variable v's pre-program value. Every
// initial and stored value in a program is globally distinct so every
// reachable memory state is distinguishable.
func initVal(t, v int) uint64 { return 0xA000 + uint64(t)*16 + uint64(v) }

// storeVal returns the value the pos-th store (in thread program order)
// of thread t writes.
func storeVal(t, pos int) uint64 { return uint64(t+1)*100 + uint64(pos) + 1 }

// Compiled is a program lowered to the simulator's workload
// representation, with the variable addresses the axiomatic checker
// reads.
type Compiled struct {
	Prog Program
	WL   *workload.Workload
	// Addrs[t][v] is thread t's variable v's heap address.
	Addrs [][2]uint64
}

// Compile lowers the program: variables are allocated and initialized on
// a fresh image (unrecorded), then each transaction is recorded through
// the heap exactly as the macro-benchmarks record theirs — Begin with the
// thread's private lock, an undo hint covering every line the transaction
// writes, the stores, End. The recorded workload feeds logging.Generate
// unchanged.
func (p Program) Compile() (*Compiled, error) {
	if len(p.Threads) == 0 {
		return nil, fmt.Errorf("litmus: program %q has no threads", p.Name())
	}
	img := nvm.NewStore()
	heaps := make([]*heap.Heap, len(p.Threads))
	addrs := make([][2]uint64, len(p.Threads))
	for t := range p.Threads {
		h := heap.New(t, img)
		heaps[t] = h
		if p.Layout == LayoutSame {
			line := h.Alloc(isa.LineSize)
			addrs[t] = [2]uint64{line, line + isa.LogBlockSize}
		} else {
			addrs[t] = [2]uint64{h.Alloc(isa.LineSize), h.Alloc(isa.LineSize)}
		}
		h.Store(addrs[t][0], initVal(t, 0))
		h.Store(addrs[t][1], initVal(t, 1))
	}
	init := img.Snapshot()
	for t, tp := range p.Threads {
		h := heaps[t]
		h.SetRecording(true)
		lock, _ := isa.VolatileWindow(t)
		pos := 0
		for _, txn := range tp.Txns() {
			h.Begin(lock)
			for _, line := range txnLines(addrs[t], txn) {
				h.LogHint(line, isa.LineSize)
			}
			for _, v := range txn {
				h.Store(addrs[t][v], storeVal(t, pos))
				pos++
			}
			h.End()
		}
	}
	wl := &workload.Workload{
		Kind:      workload.Litmus,
		Params:    workload.Params{Threads: len(p.Threads)},
		InitImage: init,
		Heaps:     heaps,
	}
	return &Compiled{Prog: p, WL: wl, Addrs: addrs}, nil
}

// Target binds the compiled program to the scheme on the litmus machine
// (SimConfig), judged by the scheme's ordering axioms: the crash-campaign
// Target the sweep classifies, minimizes and replays through.
func (c *Compiled) Target(scheme core.Scheme) (*crashcampaign.Target, error) {
	return crashcampaign.NewTarget(c.Prog.Name(), scheme, SimConfig(len(c.Prog.Threads)), c.WL,
		newChecker(c, scheme).permitted)
}

// txnLines returns the distinct cache lines the transaction's stores
// touch, in first-touch order — the undo-hint set.
func txnLines(addrs [2]uint64, txn []int) []uint64 {
	var out []uint64
	for _, v := range txn {
		line := isa.LineAddr(addrs[v])
		dup := false
		for _, l := range out {
			if l == line {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, line)
		}
	}
	return out
}
