// Package workload builds the benchmarks of Table 2 (and the Table 3
// linked-list microbenchmark): it populates the persistent data structures
// with the initialization operations (fast-forwarded: executed functionally
// but not recorded), then records each timed operation as one durable
// transaction. Operation types and keys come from a seeded generator — the
// equivalent of the paper's pre-generated random input files.
//
// Structures are partitioned across threads (structure i belongs to thread
// i mod Threads), so locks are executed but never contended; the paper
// sizes its structure counts to the same end (§5.2) and treats inter-thread
// synchronization as out of scope.
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/heap"
	"repro/internal/isa"
	"repro/internal/nvm"
	"repro/internal/pstruct"
)

// Kind identifies a benchmark.
type Kind int

const (
	Queue Kind = iota
	HashMap
	StringSwap
	AVLTree
	BTree
	RBTree
	LinkedList // Table 3 microbenchmark
	// Litmus marks hand-assembled litmus-test workloads (internal/litmus)
	// built directly from heap recordings rather than by Build; it is not
	// part of the benchmark tables.
	Litmus
)

// Abbrev returns the paper's benchmark abbreviation.
func (k Kind) Abbrev() string {
	switch k {
	case Queue:
		return "QE"
	case HashMap:
		return "HM"
	case StringSwap:
		return "SS"
	case AVLTree:
		return "AT"
	case BTree:
		return "BT"
	case RBTree:
		return "RT"
	case LinkedList:
		return "LL"
	case Litmus:
		return "LT"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

func (k Kind) String() string { return k.Abbrev() }

// Table2 lists the six evaluation benchmarks in the paper's figure order.
var Table2 = []Kind{Queue, HashMap, StringSwap, AVLTree, BTree, RBTree}

// KindByName resolves a benchmark by its paper abbreviation,
// case-insensitively (QE, HM, SS, AT, BT, RT, LL). It is the shared
// parser for every CLI flag and HTTP job spec naming a benchmark.
func KindByName(name string) (Kind, error) {
	for _, k := range append(append([]Kind{}, Table2...), LinkedList) {
		if strings.EqualFold(k.Abbrev(), name) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown benchmark %q (want QE, HM, SS, AT, BT, RT, LL)", name)
}

// Params configures a workload build.
type Params struct {
	Threads int
	InitOps int // per thread, fast-forwarded
	SimOps  int // per thread, recorded as transactions
	Seed    int64

	// StringSwap sizing.
	SSItems   int // per thread
	SSStrSize int

	// LinkedList (Table 3) sizing.
	ListNodes int // per thread
	ListElems int // elements per node = per-transaction update count

	// Mix controls the operation mix for the keyed benchmarks beyond the
	// paper's 50/50 insert-or-delete: percentages of inserts, deletes and
	// read-only lookups. Zero values select the paper's mix (50/50/0).
	Mix OpMix
}

// OpMix is an operation mix in percent; the three fields sum to 100 (or
// all zero for the default 50/50 insert/delete mix of §5.2).
type OpMix struct {
	InsertPct int
	DeletePct int
	LookupPct int
}

func (m OpMix) normalized() (OpMix, error) {
	if m == (OpMix{}) {
		return OpMix{InsertPct: 50, DeletePct: 50}, nil
	}
	if m.InsertPct < 0 || m.DeletePct < 0 || m.LookupPct < 0 ||
		m.InsertPct+m.DeletePct+m.LookupPct != 100 {
		return m, fmt.Errorf("workload: operation mix %+v does not sum to 100", m)
	}
	return m, nil
}

// DefaultParams returns the Table 2 configuration for the benchmark,
// scaled down by scale (scale 1 reproduces the paper's counts; the test
// and bench harnesses use larger scales to keep runs fast — the per-
// transaction behaviour is unchanged, only the number of timed
// transactions shrinks).
func (k Kind) DefaultParams(scale int) Params {
	if scale < 1 {
		scale = 1
	}
	p := Params{Threads: 4, Seed: 42, SSStrSize: 256, ListNodes: 16, ListElems: 1024}
	switch k {
	case Queue:
		p.InitOps, p.SimOps = 20000/scale, 50000/scale
	case HashMap:
		p.InitOps, p.SimOps = 100000/scale, 20000/scale
	case StringSwap:
		p.InitOps, p.SimOps = 20000/scale, 50000/scale
		p.SSItems = 262144 / 4 / scale // per thread share of 262144 items
	case AVLTree, BTree, RBTree:
		p.InitOps, p.SimOps = 100000/scale, 10000/scale
	case LinkedList:
		p.InitOps, p.SimOps = 0, 256/scale
	}
	if p.InitOps < 16 && k != LinkedList {
		p.InitOps = 16
	}
	if p.SimOps < 8 {
		p.SimOps = 8
	}
	if p.SSItems < 64 {
		p.SSItems = 64
	}
	return p
}

// structCount returns the Table 2 structure count for the benchmark.
func (k Kind) structCount() int {
	switch k {
	case Queue:
		return 8
	case HashMap, AVLTree, BTree, RBTree:
		return 16
	default:
		return 1 // per-thread substrate (SS array, LL list)
	}
}

// checker is the invariant-verification surface every structure offers.
type checker interface{ Check() error }

// Workload is a built benchmark: the functional image after
// initialization, the recorded transactions per thread, and the live
// structures (for invariant checks).
type Workload struct {
	Kind   Kind
	Params Params
	// InitImage is the functional NVM contents after the fast-forwarded
	// initialization — the image the timing simulation starts from. It is
	// the very store the initialization wrote, not a copy, and it is never
	// written again: users fork it. A write to it would panic every later
	// access through its forks, the heaps' included.
	InitImage *nvm.Store
	// Heaps hold the recorded transactions, one per thread. Their image
	// is a fork of InitImage that the recording wrote, so after Build it
	// holds the state after the last timed operation.
	Heaps []*heap.Heap
	// Structs are the per-thread structures, for invariant checks.
	Structs [][]checker
}

// lockAddr returns the volatile lock word of a thread's s-th structure.
func lockAddr(thread, s int) uint64 {
	base, _ := isa.VolatileWindow(thread)
	return base + uint64(s)*isa.LineSize
}

// keyed abstracts the set-like structures (HM, AT, BT, RT).
type keyed interface {
	checker
	insert(key uint64) bool
	remove(key uint64) bool
	lookup(key uint64) bool
}

type hashMapAdapter struct{ *pstruct.HashMap }

func (a hashMapAdapter) insert(k uint64) bool { return a.Insert(k, k^0xDEAD) }
func (a hashMapAdapter) remove(k uint64) bool { return a.Delete(k) }
func (a hashMapAdapter) lookup(k uint64) bool { _, ok := a.Lookup(k); return ok }

type avlAdapter struct{ *pstruct.AVL }

func (a avlAdapter) insert(k uint64) bool { return a.Insert(k, k^0xDEAD) }
func (a avlAdapter) remove(k uint64) bool { return a.Delete(k) }
func (a avlAdapter) lookup(k uint64) bool { _, ok := a.Lookup(k); return ok }

type btreeAdapter struct{ *pstruct.BTree }

func (a btreeAdapter) insert(k uint64) bool { return a.Insert(k) }
func (a btreeAdapter) remove(k uint64) bool { return a.Delete(k) }
func (a btreeAdapter) lookup(k uint64) bool { return a.Contains(k) }

type rbAdapter struct{ *pstruct.RBTree }

func (a rbAdapter) insert(k uint64) bool { return a.Insert(k, k^0xDEAD) }
func (a rbAdapter) remove(k uint64) bool { return a.Delete(k) }
func (a rbAdapter) lookup(k uint64) bool { _, ok := a.Lookup(k); return ok }

// Build constructs and records the workload.
func Build(kind Kind, p Params) (*Workload, error) {
	if p.Threads < 1 || p.Threads > isa.MaxThreads {
		return nil, fmt.Errorf("workload: bad thread count %d", p.Threads)
	}
	if p.SimOps < 1 {
		return nil, fmt.Errorf("workload: SimOps must be positive")
	}
	if _, err := p.Mix.normalized(); err != nil {
		return nil, err
	}
	img := nvm.NewStore()
	w := &Workload{Kind: kind, Params: p}

	type threadState struct {
		h   *heap.Heap
		rng *rand.Rand
		op  func(r *rand.Rand)
	}
	states := make([]*threadState, p.Threads)

	// Phase 1: build and initialize (fast-forwarded, unrecorded).
	for t := 0; t < p.Threads; t++ {
		h := heap.New(t, img)
		rng := rand.New(rand.NewSource(p.Seed + int64(t)*1_000_003))
		ts := &threadState{h: h, rng: rng}
		states[t] = ts
		w.Heaps = append(w.Heaps, h)

		switch kind {
		case Queue, HashMap, AVLTree, BTree, RBTree:
			n := kind.structCount()
			var owned []int
			for s := 0; s < n; s++ {
				if s%p.Threads == t {
					owned = append(owned, s)
				}
			}
			if len(owned) == 0 {
				owned = append(owned, t%n)
			}
			checks, op := buildKeyed(kind, h, t, owned, p, rng)
			w.Structs = append(w.Structs, checks)
			ts.op = op

		case StringSwap:
			arr := pstruct.NewStringArray(h, p.SSItems, p.SSStrSize)
			w.Structs = append(w.Structs, []checker{arr})
			lock := lockAddr(t, 0)
			ts.op = func(r *rand.Rand) {
				i, j := r.Intn(arr.Len()), r.Intn(arr.Len())
				h.Begin(lock)
				arr.Swap(i, j)
				h.End()
			}
			for i := 0; i < p.InitOps; i++ {
				arr.Swap(rng.Intn(arr.Len()), rng.Intn(arr.Len()))
			}

		case LinkedList:
			ll := pstruct.NewLinkedList(h, p.ListNodes, p.ListElems)
			w.Structs = append(w.Structs, []checker{ll})
			lock := lockAddr(t, 0)
			ts.op = func(r *rand.Rand) {
				h.Begin(lock)
				ll.UpdateNext(1)
				h.End()
			}

		default:
			return nil, fmt.Errorf("workload: unknown kind %v", kind)
		}
	}

	// The timing simulation starts from the image the initialization
	// wrote, handed over as is.
	w.InitImage = img

	// Phase 2: record the timed operations as durable transactions, into
	// a fork so the init image stays untouched.
	rec := img.Fork()
	for _, ts := range states {
		ts.h.SetImage(rec)
		ts.h.SetRecording(true)
		for i := 0; i < p.SimOps; i++ {
			ts.op(ts.rng)
		}
		ts.h.SetRecording(false)
	}
	return w, nil
}

// buildKeyed constructs the per-thread instances of a keyed benchmark,
// populates them, and returns the op closure (a random insert/delete — or
// enqueue/dequeue — on a random owned structure).
func buildKeyed(kind Kind, h *heap.Heap, thread int, owned []int, p Params, rng *rand.Rand) ([]checker, func(*rand.Rand)) {
	var checks []checker
	var queues []*pstruct.Queue
	var sets []keyed
	// Size hash maps for a load factor around one at the initial
	// population (half the key range is live on average).
	perMap := p.InitOps / len(owned)
	if perMap < 256 {
		perMap = 256
	}
	for range owned {
		switch kind {
		case Queue:
			q := pstruct.NewQueue(h)
			queues = append(queues, q)
			checks = append(checks, q)
		case HashMap:
			m := pstruct.NewHashMap(h, perMap)
			sets = append(sets, hashMapAdapter{m})
			checks = append(checks, m)
		case AVLTree:
			t := pstruct.NewAVL(h)
			sets = append(sets, avlAdapter{t})
			checks = append(checks, t)
		case BTree:
			t := pstruct.NewBTree(h)
			sets = append(sets, btreeAdapter{t})
			checks = append(checks, t)
		case RBTree:
			t := pstruct.NewRBTree(h)
			sets = append(sets, rbAdapter{t})
			checks = append(checks, t)
		}
	}

	// Keys are drawn from twice the initial population so deletes hit
	// roughly half the time.
	perStruct := p.InitOps / len(owned)
	if perStruct < 1 {
		perStruct = 1
	}
	keyRange := uint64(2 * perStruct)
	if keyRange < 16 {
		keyRange = 16
	}
	key := func(r *rand.Rand) uint64 { return uint64(r.Int63n(int64(keyRange))) + 1 }

	if kind == Queue {
		for i := 0; i < p.InitOps; i++ {
			queues[rng.Intn(len(queues))].Enqueue(rng.Uint64())
		}
		return checks, func(r *rand.Rand) {
			q := queues[r.Intn(len(queues))]
			lock := lockAddr(thread, r.Intn(len(queues)))
			h.Begin(lock)
			if r.Intn(2) == 0 {
				q.Enqueue(r.Uint64())
			} else if _, ok := q.Dequeue(); !ok {
				q.Enqueue(r.Uint64())
			}
			h.End()
		}
	}

	for i := 0; i < p.InitOps; i++ {
		sets[rng.Intn(len(sets))].insert(key(rng))
	}
	mix, _ := p.Mix.normalized()
	return checks, func(r *rand.Rand) {
		si := r.Intn(len(sets))
		s := sets[si]
		lock := lockAddr(thread, si)
		h.Begin(lock)
		switch roll := r.Intn(100); {
		case roll < mix.InsertPct:
			s.insert(key(r))
		case roll < mix.InsertPct+mix.DeletePct:
			s.remove(key(r))
		default:
			s.lookup(key(r))
		}
		h.End()
	}
}

// Check runs every structure's invariant verification.
func (w *Workload) Check() error {
	for t, cs := range w.Structs {
		for i, c := range cs {
			if err := c.Check(); err != nil {
				return fmt.Errorf("workload %v thread %d structure %d: %w", w.Kind, t, i, err)
			}
		}
	}
	return nil
}
