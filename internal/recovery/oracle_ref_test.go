package recovery_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/crashcampaign"
	"repro/internal/heap"
	"repro/internal/isa"
	"repro/internal/nvm"
	"repro/internal/recovery"
	"repro/internal/workload"
)

// refOracle is the map-based oracle the indexed recovery.Oracle replaced,
// kept verbatim as the differential reference: each check rebuilds the
// prefix state from every prefix transaction's Post.
type refOracle struct {
	init      *nvm.Store
	txns      [][]*heap.Txn
	domain    [][]uint64
	uncovered []map[uint64][]int
}

func newRefOracle(w *workload.Workload) *refOracle {
	o := &refOracle{init: w.InitImage}
	for _, h := range w.Heaps {
		o.txns = append(o.txns, h.Txns)
		seen := make(map[uint64]struct{})
		var words []uint64
		add := func(addr uint64) {
			if _, ok := seen[addr]; !ok {
				seen[addr] = struct{}{}
				words = append(words, addr)
			}
		}
		unc := make(map[uint64][]int)
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
					unc[a] = append(unc[a], i+1)
				}
			}
			for a := range hinted {
				add(a)
			}
		}
		sort.Slice(words, func(i, j int) bool { return words[i] < words[j] })
		o.domain = append(o.domain, words)
		o.uncovered = append(o.uncovered, unc)
	}
	return o
}

func (o *refOracle) verifyPrefix(img *nvm.Store, committed []int, sw bool) ([]int, error) {
	matched := make([]int, len(o.txns))
	for t := range o.txns {
		n := 0
		if t < len(committed) {
			n = committed[t]
		}
		var firstErr error
		ok := false
		for _, m := range []int{n, n + 1} {
			if m > len(o.txns[t]) {
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

func (o *refOracle) verifyThreadAt(img *nvm.Store, t, m int, sw bool) error {
	state := make(map[uint64]uint64)
	for i := 0; i < m; i++ {
		for a, v := range o.txns[t][i].Post {
			state[a] = v
		}
	}
words:
	for _, a := range o.domain[t] {
		want, ok := state[a]
		if !ok {
			want = o.init.ReadUint64(a)
		}
		got := img.ReadUint64(a)
		if got == want {
			continue
		}
		if sw {
			for _, j := range o.uncovered[t][a] {
				if j > m {
					continue words // clobbered fresh allocation; free memory
				}
			}
		}
		return fmt.Errorf("word %#x: got %#x, want %#x (after %d txns)", a, got, want, m)
	}
	return nil
}

func (o *refOracle) report(img *nvm.Store, committed []int, sw bool) []recovery.ThreadStatus {
	out := make([]recovery.ThreadStatus, len(o.txns))
	for t := range o.txns {
		n := 0
		if t < len(committed) {
			n = committed[t]
		}
		st := recovery.ThreadStatus{Thread: t, Committed: n, Matched: -1}
		for _, m := range []int{n, n + 1} {
			if m > len(o.txns[t]) {
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

// valueAfter is word a's value on thread t after its first m transactions.
func (o *refOracle) valueAfter(t, m int, a uint64) uint64 {
	v := o.init.ReadUint64(a)
	for _, txn := range o.txns[t][:m] {
		if p, ok := txn.Post[a]; ok {
			v = p
		}
	}
	return v
}

// TestOracleMatchesReference: on real recovered crash images — all six
// benchmarks × {PMEM, ATOM} × every fault model × 64 crash points — and on
// single-word mutations of them, VerifyPrefix, VerifyPrefixSW and Report
// return the reference's matched counts, statuses and error strings.
func TestOracleMatchesReference(t *testing.T) {
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for _, kind := range workload.Table2 {
		p := workload.Params{Threads: 2, InitOps: 128, SimOps: 24, Seed: 11,
			SSItems: 256, SSStrSize: 256, ListNodes: 4, ListElems: 64}
		w, err := workload.Build(kind, p)
		if err != nil {
			t.Fatal(err)
		}
		cfg := config.Default()
		cfg.Cores = p.Threads
		o, ref := recovery.NewOracle(w), newRefOracle(w)
		rng := rand.New(rand.NewSource(int64(kind) + 1))
		check := func(img *nvm.Store, committed []int, what string) {
			t.Helper()
			for _, sw := range []bool{false, true} {
				verify := o.VerifyPrefix
				if sw {
					verify = o.VerifyPrefixSW
				}
				got, gerr := verify(img, committed)
				want, werr := ref.verifyPrefix(img, committed, sw)
				if !slices.Equal(got, want) || errText(gerr) != errText(werr) {
					t.Fatalf("%s (sw %v, committed %v): matched %v, %q; reference %v, %q",
						what, sw, committed, got, errText(gerr), want, errText(werr))
				}
				if got, want := o.Report(img, committed, sw), ref.report(img, committed, sw); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s (sw %v): Report %+v; reference %+v", what, sw, got, want)
				}
			}
		}
		for _, scheme := range []core.Scheme{core.PMEM, core.ATOM} {
			full := newSystem(t, w, cfg, scheme)
			rep, err := full.Run(0)
			full.Release()
			if err != nil {
				t.Fatal(err)
			}
			sys := newSystem(t, w, cfg, scheme)
			for i := uint64(1); i <= 64; i++ {
				if c := rep.Cycles * i / 65; c > sys.Cycle() {
					sys.Step(c - sys.Cycle())
				}
				committed := sys.CommittedCounts()
				for _, f := range crashcampaign.AllFaults {
					what := fmt.Sprintf("%v/%v %v@%d", kind.Abbrev(), scheme, f, sys.Cycle())
					img := crashcampaign.Injection{Fault: f, Cycle: sys.Cycle(), Seed: i}.Apply(sys, cfg.Cores)
					_, _ = recovery.Recover(img, scheme, cfg.Cores)
					check(img, committed, what)
					// A single-word mutation: a domain word set to its value
					// after some other prefix, or with one bit flipped.
					th := rng.Intn(len(ref.domain))
					a := ref.domain[th][rng.Intn(len(ref.domain[th]))]
					v := img.ReadUint64(a) ^ 1<<rng.Intn(64)
					if rng.Intn(2) == 0 {
						v = ref.valueAfter(th, rng.Intn(len(ref.txns[th])+1), a)
					}
					img.WriteUint64(a, v)
					check(img, committed, fmt.Sprintf("%s, word %#x set to %#x", what, a, v))
				}
			}
			sys.Release()
		}
	}
}
