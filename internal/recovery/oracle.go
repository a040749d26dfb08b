package recovery

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"repro/internal/isa"
	"repro/internal/nvm"
	"repro/internal/workload"
)

// Oracle knows the functional state the persistent heap must be in after
// any prefix of each thread's transactions, built from the workload's
// initialization image and recorded write sets. It verifies the core
// durable-transaction property: after a crash and recovery, each thread's
// persistent state equals the state after some prefix of its transactions
// — every transaction is all-or-nothing, and no committed transaction is
// lost except possibly the very last one in flight at the crash.
type Oracle struct {
	threads []threadIndex
}

// threadIndex is one thread's verification domain: every word any
// transaction can write or roll back (write sets widened to 32-byte
// blocks, plus hinted lines) — the addresses recovery is allowed to touch
// and the verifier compares — in ascending address order.
type threadIndex struct {
	txns  int
	words []domainWord
}

// domainWord is one word of a thread's domain, indexed so a check against
// any transaction prefix reads it once and allocates nothing.
type domainWord struct {
	addr uint64
	init uint64 // value in the initialization image
	// posts is the word's value after each transaction that wrote it, in
	// transaction order.
	posts []post
	// newestUncovered is the newest (1-based) transaction that wrote the
	// word without declaring it in its undo-log hints — a write to freshly
	// allocated memory, which the paper's failure-safe-allocation
	// assumption (§5.2) exempts from undo logging — or 0. Software-logging
	// verification treats the word as don't-care when such a transaction
	// may have executed past the verified prefix.
	newestUncovered int
}

// post is a word's value after the (1-based) transaction txn.
type post struct {
	txn int
	val uint64
}

// NewOracle builds the oracle for a recorded workload.
func NewOracle(w *workload.Workload) *Oracle {
	o := &Oracle{}
	for _, h := range w.Heaps {
		seen := make(map[uint64]struct{})
		var addrs []uint64
		add := func(addr uint64) {
			if _, ok := seen[addr]; !ok {
				seen[addr] = struct{}{}
				addrs = append(addrs, addr)
			}
		}
		uncovered := make(map[uint64]int)
		for i, t := range h.Txns {
			hinted := make(map[uint64]struct{})
			for _, r := range t.Hints {
				for a := isa.LineAddr(r.Addr); a < r.Addr+uint64(r.Size); a += 8 {
					hinted[a] = struct{}{}
				}
			}
			for a := range t.Pre {
				// Hardware logging restores whole 32-byte blocks.
				b := isa.LogBlockAddr(a)
				for w := uint64(0); w < isa.LogBlockSize; w += 8 {
					add(b + w)
				}
				if _, ok := hinted[a]; !ok {
					uncovered[a] = i + 1
				}
			}
			for a := range hinted {
				add(a)
			}
		}
		// Sort so verification scans (and reports first mismatches) in
		// ascending address order: diagnostics stay deterministic across
		// processes despite the map-ordered build above.
		slices.Sort(addrs)
		d := threadIndex{txns: len(h.Txns), words: make([]domainWord, len(addrs))}
		index := make(map[uint64]int, len(addrs))
		for k, a := range addrs {
			index[a] = k
			d.words[k] = domainWord{addr: a, init: w.InitImage.ReadUint64(a), newestUncovered: uncovered[a]}
		}
		for i, t := range h.Txns {
			for a, v := range t.Post {
				if k, ok := index[a]; ok {
					d.words[k].posts = append(d.words[k].posts, post{txn: i + 1, val: v})
				}
			}
		}
		o.threads = append(o.threads, d)
	}
	return o
}

// after returns the word's value after the first m transactions.
func (dw *domainWord) after(m int) uint64 {
	n := sort.Search(len(dw.posts), func(i int) bool { return dw.posts[i].txn > m })
	if n == 0 {
		return dw.init
	}
	return dw.posts[n-1].val
}

// VerifyFinal checks that img holds the state after all transactions of
// every thread (the no-crash end state).
func (o *Oracle) VerifyFinal(img *nvm.Store) error {
	for t := range o.threads {
		if err := o.verifyThreadAt(img, t, o.threads[t].txns, false); err != nil {
			return err
		}
	}
	return nil
}

// VerifyPrefix checks that img is consistent with committed[t] durable
// transactions on each thread, tolerating one extra commit (the commit
// point may fall between the durability action and the simulator's commit
// record). It returns the prefix length matched per thread. Every written
// word is checked exactly — the guarantee hardware logging provides.
func (o *Oracle) VerifyPrefix(img *nvm.Store, committed []int) ([]int, error) {
	return o.verifyPrefix(img, committed, false)
}

// VerifyPrefixSW is VerifyPrefix for software undo logging, which per the
// paper's failure-safe-allocation assumption does not log writes to
// freshly allocated memory: words whose only post-prefix writers are such
// uncovered writes may legitimately hold clobbered values after rollback
// (the memory is free; the structure is consistent).
func (o *Oracle) VerifyPrefixSW(img *nvm.Store, committed []int) ([]int, error) {
	return o.verifyPrefix(img, committed, true)
}

func (o *Oracle) verifyPrefix(img *nvm.Store, committed []int, sw bool) ([]int, error) {
	matched := make([]int, len(o.threads))
	for t := range o.threads {
		n := 0
		if t < len(committed) {
			n = committed[t]
		}
		var firstErr error
		ok := false
		for _, m := range []int{n, n + 1} {
			if m > o.threads[t].txns {
				break
			}
			if err := o.verifyThreadAt(img, t, m, sw); err == nil {
				matched[t] = m
				ok = true
				break
			} else if firstErr == nil {
				firstErr = err
			}
		}
		if !ok {
			return nil, fmt.Errorf("recovery: thread %d state matches neither %d nor %d committed transactions: %w",
				t, n, n+1, firstErr)
		}
	}
	return matched, nil
}

// verifyThreadAt checks thread t's domain words against the state after m
// transactions, reading the image one line at a time. In sw mode, words
// with uncovered writes by transactions beyond the prefix are don't-care.
func (o *Oracle) verifyThreadAt(img *nvm.Store, t, m int, sw bool) error {
	line := ^uint64(0)
	var data [isa.LineSize]byte
	for i := range o.threads[t].words {
		dw := &o.threads[t].words[i]
		if l := isa.LineAddr(dw.addr); l != line {
			line, data = l, img.LineView(l)
		}
		// Domain words are 8-byte aligned: each lies in one line.
		got := binary.LittleEndian.Uint64(data[dw.addr-line:])
		want := dw.after(m)
		if got == want {
			continue
		}
		if sw && dw.newestUncovered > m {
			continue // clobbered fresh allocation; free memory
		}
		return fmt.Errorf("word %#x: got %#x, want %#x (after %d txns)", dw.addr, got, want, m)
	}
	return nil
}

// ThreadStatus reports one thread's verification outcome.
type ThreadStatus struct {
	Thread    int
	Committed int    // prefix length the simulator recorded
	Matched   int    // prefix length the image matches; -1 on mismatch
	Mismatch  string // first divergent word when Matched < 0
}

// OK reports whether the thread's state verified.
func (s ThreadStatus) OK() bool { return s.Matched >= 0 }

// Report verifies every thread and returns a status per thread, rather
// than stopping at the first mismatch as VerifyPrefix does. It exists for
// diagnostics: a crash-campaign reproducer or proteus-recover run wants
// the full per-thread picture of a failed image.
func (o *Oracle) Report(img *nvm.Store, committed []int, sw bool) []ThreadStatus {
	out := make([]ThreadStatus, len(o.threads))
	for t := range o.threads {
		n := 0
		if t < len(committed) {
			n = committed[t]
		}
		st := ThreadStatus{Thread: t, Committed: n, Matched: -1}
		for _, m := range []int{n, n + 1} {
			if m > o.threads[t].txns {
				break
			}
			if err := o.verifyThreadAt(img, t, m, sw); err == nil {
				st.Matched = m
				break
			} else if st.Mismatch == "" {
				st.Mismatch = err.Error()
			}
		}
		out[t] = st
	}
	return out
}

// Threads returns the thread count the oracle covers.
func (o *Oracle) Threads() int { return len(o.threads) }

// TxnCount returns thread t's recorded transaction count.
func (o *Oracle) TxnCount(t int) int { return o.threads[t].txns }
