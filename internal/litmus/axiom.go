package litmus

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/nvm"
)

// modelStates computes, from the program AST alone (deliberately not
// from the heap recording, so the checker is independent of the
// compilation path), thread t's variable values after each whole number
// of its transactions: states[m][v] is variable v after m transactions,
// m = 0..len(txns).
func modelStates(p Program, t int) [][2]uint64 {
	cur := [2]uint64{initVal(t, 0), initVal(t, 1)}
	states := [][2]uint64{cur}
	pos := 0
	for _, txn := range p.Threads[t].Txns() {
		for _, v := range txn {
			cur[v] = storeVal(t, pos)
			pos++
		}
		states = append(states, cur)
	}
	return states
}

// checker evaluates recovered images of one compiled (program, scheme)
// pair against the scheme's ordering axioms.
type checker struct {
	commitLag int
	addrs     [][2]uint64
	// states[t][m] is thread t's model state after m whole transactions.
	states [][][2]uint64
}

func newChecker(c *Compiled, scheme core.Scheme) *checker {
	ck := &checker{commitLag: scheme.Ordering().CommitLag, addrs: c.Addrs}
	for t := range c.Prog.Threads {
		ck.states = append(ck.states, modelStates(c.Prog, t))
	}
	return ck
}

// permitted is the litmus targets' Expectation: it checks the recovered
// image against the axioms. For every thread t the recovered variable
// values must equal the model state after m whole transactions for some
// m in [committed[t], committed[t]+CommitLag] (clamped to the thread's
// transaction count) — transaction atomicity plus the declared commit
// lag, checked exactly. Threads own disjoint variables, so each is
// checked independently. The returned error describes the first
// violation.
func (ck *checker) permitted(img *nvm.Store, committed []int) error {
	for t := range ck.states {
		got := [2]uint64{img.ReadUint64(ck.addrs[t][0]), img.ReadUint64(ck.addrs[t][1])}
		lo := committed[t]
		hi := lo + ck.commitLag
		if max := len(ck.states[t]) - 1; hi > max {
			hi = max
		}
		ok := false
		for m := lo; m <= hi; m++ {
			if ck.states[t][m] == got {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("thread %d: recovered x=%#x y=%#x matches no whole-transaction state in window [%d,%d] of %s",
				t, got[0], got[1], lo, hi, ck.describe(t))
		}
	}
	return nil
}

// describe renders thread t's permitted model states for diagnostics.
func (ck *checker) describe(t int) string {
	var b strings.Builder
	for m, st := range ck.states[t] {
		if m > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "m=%d:(%#x,%#x)", m, st[0], st[1])
	}
	return b.String()
}
