package pstruct

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/heap"
)

func newHeap() *heap.Heap { return heap.New(0) }

// --------------------------------------------------------------- queue

func TestQueueFIFO(t *testing.T) {
	q := NewQueue(newHeap())
	for i := uint64(1); i <= 100; i++ {
		q.Enqueue(i)
	}
	if err := q.Check(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 100; i++ {
		v, ok := q.Dequeue()
		if !ok || v != i {
			t.Fatalf("dequeue %d: got (%d, %v)", i, v, ok)
		}
	}
	if _, ok := q.Dequeue(); ok {
		t.Fatal("dequeue from empty queue succeeded")
	}
	if err := q.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestQueueInterleaved(t *testing.T) {
	q := NewQueue(newHeap())
	var model []uint64
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		if rng.Intn(2) == 0 || len(model) == 0 {
			v := rng.Uint64()
			q.Enqueue(v)
			model = append(model, v)
		} else {
			v, ok := q.Dequeue()
			if !ok || v != model[0] {
				t.Fatalf("op %d: dequeue got (%d,%v), want %d", i, v, ok, model[0])
			}
			model = model[1:]
		}
	}
	if q.Len() != uint64(len(model)) {
		t.Fatalf("len %d, want %d", q.Len(), len(model))
	}
	if err := q.Check(); err != nil {
		t.Fatal(err)
	}
}

// -------------------------------------------------------------- hashmap

func TestHashMapBasic(t *testing.T) {
	m := NewHashMap(newHeap(), 16)
	if !m.Insert(1, 10) {
		t.Fatal("first insert reported update")
	}
	if m.Insert(1, 20) {
		t.Fatal("second insert reported new entry")
	}
	if v, ok := m.Lookup(1); !ok || v != 20 {
		t.Fatalf("lookup: got (%d,%v)", v, ok)
	}
	if !m.Delete(1) {
		t.Fatal("delete missed")
	}
	if m.Delete(1) {
		t.Fatal("double delete succeeded")
	}
	if _, ok := m.Lookup(1); ok {
		t.Fatal("lookup after delete succeeded")
	}
}

// setOps drives any set-like structure against a Go map model.
func setModelTest(t *testing.T, insert func(k uint64) bool, remove func(k uint64) bool,
	contains func(k uint64) bool, size func() uint64, check func() error, ops int, keyRange int64) {
	t.Helper()
	model := make(map[uint64]bool)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < ops; i++ {
		k := uint64(rng.Int63n(keyRange)) + 1
		if rng.Intn(2) == 0 {
			got := insert(k)
			want := !model[k]
			if got != want {
				t.Fatalf("op %d: insert(%d) = %v, want %v", i, k, got, want)
			}
			model[k] = true
		} else {
			got := remove(k)
			if got != model[k] {
				t.Fatalf("op %d: remove(%d) = %v, want %v", i, k, got, model[k])
			}
			delete(model, k)
		}
		if i%256 == 0 {
			if err := check(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	if size() != uint64(len(model)) {
		t.Fatalf("size %d, want %d", size(), len(model))
	}
	for k := range model {
		if !contains(k) {
			t.Fatalf("missing key %d", k)
		}
	}
	if err := check(); err != nil {
		t.Fatal(err)
	}
}

func TestHashMapModel(t *testing.T) {
	m := NewHashMap(newHeap(), 64)
	setModelTest(t,
		func(k uint64) bool { return m.Insert(k, k*3) },
		m.Delete,
		func(k uint64) bool { _, ok := m.Lookup(k); return ok },
		m.Len, m.Check, 4000, 500)
}

// ----------------------------------------------------------------- avl

func TestAVLModel(t *testing.T) {
	tr := NewAVL(newHeap())
	setModelTest(t,
		func(k uint64) bool { return tr.Insert(k, k^7) },
		tr.Delete,
		func(k uint64) bool { _, ok := tr.Lookup(k); return ok },
		tr.Size, tr.Check, 6000, 700)
}

func TestAVLSequential(t *testing.T) {
	tr := NewAVL(newHeap())
	for k := uint64(1); k <= 512; k++ {
		tr.Insert(k, k)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 512; k += 2 {
		if !tr.Delete(k) {
			t.Fatalf("delete %d failed", k)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 256 {
		t.Fatalf("size %d, want 256", tr.Size())
	}
}

// ------------------------------------------------------------------ rb

func TestRBTreeModel(t *testing.T) {
	tr := NewRBTree(newHeap())
	setModelTest(t,
		func(k uint64) bool { return tr.Insert(k, k^7) },
		tr.Delete,
		func(k uint64) bool { _, ok := tr.Lookup(k); return ok },
		tr.Size, tr.Check, 6000, 700)
}

func TestRBTreeSequential(t *testing.T) {
	tr := NewRBTree(newHeap())
	for k := uint64(1); k <= 512; k++ {
		tr.Insert(k, k)
		if k%64 == 0 {
			if err := tr.Check(); err != nil {
				t.Fatalf("after insert %d: %v", k, err)
			}
		}
	}
	for k := uint64(512); k >= 1; k-- {
		if !tr.Delete(k) {
			t.Fatalf("delete %d failed", k)
		}
		if k%64 == 0 {
			if err := tr.Check(); err != nil {
				t.Fatalf("after delete %d: %v", k, err)
			}
		}
	}
}

// --------------------------------------------------------------- btree

func TestBTreeModel(t *testing.T) {
	tr := NewBTree(newHeap())
	setModelTest(t,
		tr.Insert,
		tr.Delete,
		tr.Contains,
		tr.Size, tr.Check, 6000, 700)
}

func TestBTreeSequential(t *testing.T) {
	tr := NewBTree(newHeap())
	for k := uint64(1); k <= 1000; k++ {
		if !tr.Insert(k) {
			t.Fatalf("insert %d failed", k)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 1000; k++ {
		if !tr.Contains(k) {
			t.Fatalf("missing %d", k)
		}
	}
	for k := uint64(1); k <= 1000; k++ {
		if !tr.Delete(k) {
			t.Fatalf("delete %d failed", k)
		}
		if k%100 == 0 {
			if err := tr.Check(); err != nil {
				t.Fatalf("after delete %d: %v", k, err)
			}
		}
	}
	if tr.Size() != 0 {
		t.Fatalf("size %d after deleting all", tr.Size())
	}
}

// quick.Check property: any random batch of inserts produces a tree whose
// in-order content equals the sorted unique keys (checked via Contains and
// invariants). Shared across the three trees.
func TestTreesQuickProperty(t *testing.T) {
	prop := func(keys []uint16) bool {
		uniq := make(map[uint64]bool)
		for _, k := range keys {
			uniq[uint64(k)+1] = true
		}
		avl := NewAVL(newHeap())
		rb := NewRBTree(newHeap())
		bt := NewBTree(newHeap())
		for _, k := range keys {
			kk := uint64(k) + 1
			avl.Insert(kk, kk)
			rb.Insert(kk, kk)
			bt.Insert(kk)
		}
		if avl.Check() != nil || rb.Check() != nil || bt.Check() != nil {
			return false
		}
		if avl.Size() != uint64(len(uniq)) || rb.Size() != uint64(len(uniq)) || bt.Size() != uint64(len(uniq)) {
			return false
		}
		var sorted []uint64
		for k := range uniq {
			sorted = append(sorted, k)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, k := range sorted {
			if _, ok := avl.Lookup(k); !ok {
				return false
			}
			if _, ok := rb.Lookup(k); !ok {
				return false
			}
			if !bt.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// quick.Check property: insert-then-delete of a random subset leaves
// exactly the complement.
func TestTreesDeleteQuickProperty(t *testing.T) {
	prop := func(keys []uint16, del []uint16) bool {
		avl := NewAVL(newHeap())
		rb := NewRBTree(newHeap())
		bt := NewBTree(newHeap())
		model := make(map[uint64]bool)
		for _, k := range keys {
			kk := uint64(k)%512 + 1
			avl.Insert(kk, kk)
			rb.Insert(kk, kk)
			bt.Insert(kk)
			model[kk] = true
		}
		for _, k := range del {
			kk := uint64(k)%512 + 1
			a := avl.Delete(kk)
			r := rb.Delete(kk)
			b := bt.Delete(kk)
			want := model[kk]
			if a != want || r != want || b != want {
				return false
			}
			delete(model, kk)
		}
		if avl.Check() != nil || rb.Check() != nil || bt.Check() != nil {
			return false
		}
		return avl.Size() == uint64(len(model)) && rb.Size() == uint64(len(model)) && bt.Size() == uint64(len(model))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// ----------------------------------------------------------- stringswap

func TestStringSwap(t *testing.T) {
	a := NewStringArray(newHeap(), 32, 256)
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		a.Swap(rng.Intn(32), rng.Intn(32))
	}
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestStringSwapSelf(t *testing.T) {
	a := NewStringArray(newHeap(), 4, 256)
	a.Swap(2, 2)
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
}

// ----------------------------------------------------------- linkedlist

func TestLinkedList(t *testing.T) {
	l := NewLinkedList(newHeap(), 5, 128)
	if err := l.Check(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		l.UpdateNext(1)
		if err := l.Check(); err != nil {
			t.Fatalf("after update %d: %v", i, err)
		}
	}
}

// ------------------------------------------------------------- hints

// TestHintsCoverStructuralWrites verifies the conservative-undo-set
// contract the software-logging scheme depends on: every transactional
// store to memory that was live before the transaction falls inside the
// transaction's declared hint ranges. (Writes to freshly allocated nodes
// are exempt; allocation is failure-safe, §5.2.)
func TestHintsCoverStructuralWrites(t *testing.T) {
	h := newHeap()
	tr := NewRBTree(h)
	rng := rand.New(rand.NewSource(17))
	live := make(map[uint64]bool) // lines live before the current txn
	// Populate.
	for i := 0; i < 400; i++ {
		tr.Insert(uint64(rng.Int63n(300))+1, 1)
	}
	h.SetRecording(true)
	for i := 0; i < 300; i++ {
		h.Begin(0)
		k := uint64(rng.Int63n(300)) + 1
		if rng.Intn(2) == 0 {
			tr.Insert(k, k)
		} else {
			tr.Delete(k)
		}
		txn := h.End()

		hinted := make(map[uint64]bool)
		for _, r := range txn.Hints {
			for a := r.Addr &^ 63; a < r.Addr+uint64(r.Size); a += 64 {
				hinted[a] = true
			}
		}
		// Lines allocated within this transaction are exempt.
		for _, r := range txn.Allocs {
			for a := r.Addr &^ 63; a < r.Addr+uint64(r.Size); a += 64 {
				hinted[a] = true
			}
		}
		for a := range txn.Pre {
			line := a &^ 63
			if live[line] && !hinted[line] {
				t.Fatalf("txn %d: store to live line %#x not covered by hints", i, line)
			}
		}
		for a := range txn.Pre {
			live[a&^63] = true
		}
		for _, r := range txn.Allocs {
			// freshly allocated lines are now live
			for a := r.Addr &^ 63; a < r.Addr+uint64(r.Size); a += 64 {
				live[a] = true
			}
		}
	}
}
