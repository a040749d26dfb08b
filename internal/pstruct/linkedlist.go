package pstruct

import "repro/internal/heap"

// LinkedList is the Table 3 microbenchmark substrate: a circular list of
// nodes, each carrying a large payload of 8-byte elements. One transaction
// updates every element of one node, generating orders of magnitude more
// log entries per transaction than the Table 2 benchmarks (§7.3).
//
// Node layout: one 64-byte header line ([0] next, [8] element count)
// followed by the payload lines.
type LinkedList struct {
	h     *heap.Heap
	hdr   uint64 // [0] first node, [8] node count
	cur   uint64 // next node to update (round-robin)
	elems int
}

// NewLinkedList builds a circular list of nodes, each with elems 8-byte
// elements.
func NewLinkedList(h *heap.Heap, nodes, elems int) *LinkedList {
	l := &LinkedList{h: h, hdr: h.Alloc(64), elems: elems}
	var first, prev uint64
	for i := 0; i < nodes; i++ {
		n := h.Alloc(64 + elems*8)
		h.Store(n+8, uint64(elems))
		if prev != 0 {
			h.Store(prev, n)
		} else {
			first = n
		}
		prev = n
	}
	h.Store(prev, first) // close the cycle
	h.Store(l.hdr, first)
	h.Store(l.hdr+8, uint64(nodes))
	l.cur = first
	return l
}

// UpdateNext updates every element of the next node in round-robin order
// with val; the whole node update is one transaction's work.
func (l *LinkedList) UpdateNext(val uint64) {
	h := l.h
	n := l.cur
	touch(h, n) // header line
	h.LogHint(n+64, l.elems*8)
	for i := 0; i < l.elems; i++ {
		addr := n + 64 + uint64(i*8)
		old := h.Load(addr)
		h.Store(addr, old+val)
	}
	l.cur = h.Load(n) // advance (volatile cursor; next pointer unchanged)
}

// Check verifies the list is circular with the declared node count and
// every node's elements share one update generation.
func (l *LinkedList) Check() error {
	h := l.h
	first := h.Load(l.hdr)
	want := h.Load(l.hdr + 8)
	n := first
	var count uint64
	for {
		count++
		gen := h.Load(n + 64)
		for i := 1; i < l.elems; i++ {
			if v := h.Load(n + 64 + uint64(i*8)); v != gen {
				return errf("linkedlist node %#x torn: element %d is %d, element 0 is %d", n, i, v, gen)
			}
		}
		n = h.Load(n)
		if n == first {
			break
		}
		if count > want {
			return errLoop("linkedlist")
		}
	}
	if count != want {
		return errCount("linkedlist nodes", count, want)
	}
	return nil
}
