package recovery

import (
	"testing"

	"repro/internal/nvm"
	"repro/internal/workload"
)

func buildW(t *testing.T) *workload.Workload {
	t.Helper()
	w, err := workload.Build(workload.Queue, workload.Params{Threads: 2, InitOps: 32, SimOps: 10, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestOracleAcceptsReplayedPrefixes(t *testing.T) {
	w := buildW(t)
	o := NewOracle(w)
	if o.Threads() != 2 {
		t.Fatalf("threads %d", o.Threads())
	}
	// Replay m transactions of each thread onto a copy of the init image
	// and verify the oracle accepts exactly that prefix.
	for m := 0; m <= o.TxnCount(0); m++ {
		img := w.InitImage.Snapshot()
		counts := make([]int, 2)
		for th, h := range w.Heaps {
			n := m
			if n > len(h.Txns) {
				n = len(h.Txns)
			}
			counts[th] = n
			for i := 0; i < n; i++ {
				for a, v := range h.Txns[i].Post {
					img.WriteUint64(a, v)
				}
			}
		}
		matched, err := o.VerifyPrefix(img, counts)
		if err != nil {
			t.Fatalf("prefix %d rejected: %v", m, err)
		}
		for th, got := range matched {
			if got != counts[th] {
				t.Fatalf("prefix %d: matched %d on thread %d", m, got, th)
			}
		}
	}
}

func TestOracleRejectsTornState(t *testing.T) {
	w := buildW(t)
	o := NewOracle(w)
	img := w.InitImage.Snapshot()
	// Apply only half of transaction 1's writes on thread 0 (a torn
	// transaction).
	txn := w.Heaps[0].Txns[0]
	if len(txn.Post) < 2 {
		t.Skip("first txn too small to tear")
	}
	i := 0
	for a, v := range txn.Post {
		if i%2 == 0 {
			img.WriteUint64(a, v)
		}
		i++
	}
	if _, err := o.VerifyPrefix(img, []int{0, 0}); err == nil {
		// Tearing the txn might coincidentally equal the pre state if the
		// applied words were unchanged; only fail when values differ.
		differs := false
		for a, v := range txn.Post {
			if txn.Pre[a] != v {
				differs = true
				break
			}
		}
		if differs {
			t.Fatal("oracle accepted a torn transaction")
		}
	}
}

func TestOracleToleratesOffByOneCommit(t *testing.T) {
	w := buildW(t)
	o := NewOracle(w)
	img := w.InitImage.Snapshot()
	// Thread 0 has one committed txn applied, but the commit record says 0
	// (the crash landed between durability and the record).
	for a, v := range w.Heaps[0].Txns[0].Post {
		img.WriteUint64(a, v)
	}
	matched, err := o.VerifyPrefix(img, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if matched[0] != 1 {
		t.Fatalf("matched %d, want 1 (n+1 tolerance)", matched[0])
	}
}

func TestOracleVerifyFinal(t *testing.T) {
	w := buildW(t)
	o := NewOracle(w)
	img := w.InitImage.Snapshot()
	for _, h := range w.Heaps {
		for _, txn := range h.Txns {
			for a, v := range txn.Post {
				img.WriteUint64(a, v)
			}
		}
	}
	if err := o.VerifyFinal(img); err != nil {
		t.Fatal(err)
	}
	// Corrupt one word.
	for a := range w.Heaps[0].Txns[0].Post {
		img.WriteUint64(a, ^img.ReadUint64(a))
		break
	}
	if err := o.VerifyFinal(img); err == nil {
		t.Fatal("corruption not detected")
	}
}

// TestVerifyPrefixAllocatesOnce pins the indexed oracle's cost: a
// successful VerifyPrefix or VerifyPrefixSW allocates only its result.
func TestVerifyPrefixAllocatesOnce(t *testing.T) {
	w := buildW(t)
	o := NewOracle(w)
	img := w.InitImage.Fork()
	counts := []int{len(w.Heaps[0].Txns) / 2, len(w.Heaps[1].Txns) / 2}
	for th, h := range w.Heaps {
		for _, txn := range h.Txns[:counts[th]] {
			for a, v := range txn.Post {
				img.WriteUint64(a, v)
			}
		}
	}
	for name, verify := range map[string]func(*nvm.Store, []int) ([]int, error){
		"VerifyPrefix": o.VerifyPrefix, "VerifyPrefixSW": o.VerifyPrefixSW,
	} {
		if _, err := verify(img, counts); err != nil {
			t.Fatalf("%s rejected a replayed prefix: %v", name, err)
		}
		if allocs := testing.AllocsPerRun(100, func() { _, _ = verify(img, counts) }); allocs > 1 {
			t.Errorf("%s allocates %.0f times per call, want at most 1", name, allocs)
		}
	}
}
