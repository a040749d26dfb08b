package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ring is a consistent-hash ring over worker names. Each worker owns
// vnodes points on a 64-bit circle; an item's fingerprint is owned by the
// first point clockwise from its hash. Adding or removing one worker
// moves only the keys adjacent to its points — so a worker crash
// redistributes its share without reshuffling everyone else's store
// locality.
//
// Ownership is a placement preference, not a partition: the coordinator
// lets idle workers steal items they do not own, so correctness never
// depends on ring membership being current.
type ring struct {
	vnodes int
	points []ringPoint // sorted by hash
}

// virtualNodes is how many points each worker owns on a coordinator's
// ring.
const virtualNodes = 64

type ringPoint struct {
	hash   uint64
	worker string
}

func newRing(vnodes int) *ring {
	return &ring{vnodes: vnodes}
}

func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// add inserts the worker's vnodes. Adding a present worker is a no-op.
func (r *ring) add(worker string) {
	for _, p := range r.points {
		if p.worker == worker {
			return
		}
	}
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{ringHash(fmt.Sprintf("%s#%d", worker, i)), worker})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// remove deletes the worker's vnodes.
func (r *ring) remove(worker string) {
	kept := r.points[:0]
	for _, p := range r.points {
		if p.worker != worker {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// owner returns the worker owning the key, or "" on an empty ring.
func (r *ring) owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].worker
}
