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
	"slices"
	"sync"

	"repro/internal/enum"
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

var kinds = enum.Names[Kind]{
	What:   "benchmark",
	Values: slices.Concat(Table2, []Kind{LinkedList}),
	All:    Table2,
}

// KindByName resolves a benchmark by its paper abbreviation,
// case-insensitively (QE, HM, SS, AT, BT, RT, LL).
func KindByName(name string) (Kind, error) { return kinds.Lookup(name) }

// ParseKinds parses a comma-separated benchmark list; "all" means Table2.
func ParseKinds(list string) ([]Kind, error) { return kinds.List(list) }

// MarshalText encodes a benchmark as its abbreviation.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText decodes a benchmark abbreviation, case-insensitively.
func (k *Kind) UnmarshalText(text []byte) error { return kinds.Unmarshal(k, text) }

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
	// initialization — the image the timing simulation starts from. Its
	// blocks are the lines the threads' heap arenas wrote, adopted
	// uncopied (heap.Freeze), and it is never written: users fork it. A
	// write to it would panic every later access through its forks, the
	// heaps' included.
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

// Per-thread size bounds. A build does not check its context, so an
// operation count above Table 2's largest (100,000) would outlive every
// job timeout. The StringSwap and linked-list bounds sit well above the
// largest sizes in use (65,536 strings of 256 bytes; Table 3's 8,192
// elements in 16 nodes) and keep either structure inside a thread's
// 256 MiB heap window.
const (
	maxOps       = 100_000
	maxSSItems   = 131_072
	maxSSStrSize = 1024
	maxListNodes = 256
	maxListElems = 65_536
)

// Validate reports a shape Build refuses: a thread count above the
// address space's windows, an operation count out of bounds, a bad mix,
// or out-of-bounds sizes for the structure kind k builds. Build checks
// it first, and job specs check it at admission, before anything is
// built.
func (p Params) Validate(k Kind) error {
	type bound struct {
		name      string
		v, lo, hi int
	}
	bounds := []bound{
		{"threads", p.Threads, 1, isa.MaxThreads},
		{"initops", p.InitOps, 0, maxOps},
		{"simops", p.SimOps, 1, maxOps},
	}
	switch k {
	case StringSwap:
		bounds = append(bounds, bound{"SSItems", p.SSItems, 1, maxSSItems}, bound{"SSStrSize", p.SSStrSize, 8, maxSSStrSize})
	case LinkedList:
		bounds = append(bounds, bound{"ListNodes", p.ListNodes, 1, maxListNodes}, bound{"ListElems", p.ListElems, 1, maxListElems})
	}
	for _, b := range bounds {
		if b.v < b.lo || b.v > b.hi {
			return fmt.Errorf("workload: %s %d outside [%d, %d]", b.name, b.v, b.lo, b.hi)
		}
	}
	_, err := p.Mix.normalized()
	return err
}

// Build constructs and records the workload. Each thread builds and
// initializes its own structures in its own heap, so the threads
// initialize at once, one goroutine each; the timed operations are then
// recorded serially, thread by thread, into one fork of the init image.
func Build(kind Kind, p Params) (*Workload, error) {
	if err := p.Validate(kind); err != nil {
		return nil, err
	}
	type thread struct {
		h       *heap.Heap
		rng     *rand.Rand
		structs []checker
		op      func(r *rand.Rand)
		err     error
	}
	threads := make([]thread, p.Threads)

	// Phase 1: build and initialize (fast-forwarded, unrecorded).
	var wg sync.WaitGroup
	for t := range threads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := &threads[t]
			th.h = heap.New(t)
			th.rng = rand.New(rand.NewSource(p.Seed + int64(t)*1_000_003))
			th.structs, th.op, th.err = initThread(kind, th.h, t, p, th.rng)
		}()
	}
	wg.Wait()

	w := &Workload{Kind: kind, Params: p}
	for _, th := range threads {
		if th.err != nil {
			return nil, th.err
		}
		w.Heaps = append(w.Heaps, th.h)
		w.Structs = append(w.Structs, th.structs)
	}

	// The timing simulation starts from the image the initialization
	// wrote. Phase 2: record the timed operations as durable
	// transactions, into the fork Freeze points the heaps at.
	w.InitImage = heap.Freeze(w.Heaps)
	for _, th := range threads {
		th.h.SetRecording(true)
		for i := 0; i < p.SimOps; i++ {
			th.op(th.rng)
		}
		th.h.SetRecording(false)
	}
	return w, nil
}

// initThread builds and initializes thread t's structures on its heap h
// and returns them with the thread's timed operation.
func initThread(kind Kind, h *heap.Heap, t int, p Params, rng *rand.Rand) ([]checker, func(*rand.Rand), error) {
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
		return checks, op, nil

	case StringSwap:
		arr := pstruct.NewStringArray(h, p.SSItems, p.SSStrSize)
		lock := lockAddr(t, 0)
		for i := 0; i < p.InitOps; i++ {
			arr.Swap(rng.Intn(arr.Len()), rng.Intn(arr.Len()))
		}
		return []checker{arr}, func(r *rand.Rand) {
			i, j := r.Intn(arr.Len()), r.Intn(arr.Len())
			h.Begin(lock)
			arr.Swap(i, j)
			h.End()
		}, nil

	case LinkedList:
		ll := pstruct.NewLinkedList(h, p.ListNodes, p.ListElems)
		lock := lockAddr(t, 0)
		return []checker{ll}, func(r *rand.Rand) {
			h.Begin(lock)
			ll.UpdateNext(1)
			h.End()
		}, nil
	}
	return nil, nil, fmt.Errorf("workload: unknown kind %v", kind)
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
