// Package cluster turns the single-node job server into a distributed
// simulation cluster: a coordinator that owns a queue of work items and
// pull-based workers (cmd/proteus-worker) that lease batches of items,
// heartbeat while simulating, and report results.
//
// The design is lease-based and fail-stop tolerant: every grant carries a
// TTL, a worker that vanishes (crash, partition, SIGKILL) simply stops
// heartbeating and its items are requeued when the lease expires. Each
// requeue burns one attempt from a retry budget with exponential backoff;
// items that exhaust the budget are quarantined with a typed error
// (ErrQuarantined) instead of wedging the campaign that submitted them.
//
// Placement uses a consistent-hash ring over the registered workers keyed
// by the item fingerprint (for simulations, engine.Job.Fingerprint() — the
// same key the result store shards by), so each tuple has one natural home
// and a worker's local result store accumulates exactly the entries it
// keeps being asked for. Ownership is a locality preference, not a
// partition: an idle worker steals any available item, which is what lets
// a 1-worker cluster drain everything and a 4-worker cluster survive the
// loss of one.
//
// Determinism is preserved end to end: items are deterministic
// simulations, results are keyed (never ordered by completion), and the
// campaign assembly on the coordinator walks the bench × scheme matrix in
// declaration order — so a campaign run on 1 worker, 4 workers, or 4
// workers with one killed mid-sweep produces byte-identical reports
// (asserted by TestClusterDeterministicAcrossWorkerCountAndLoss).
package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"strconv"
	"sync"
	"time"
)

// ErrQuarantined marks an item that failed its whole retry budget. A
// campaign waiting on a quarantined item fails with this error (wrapped
// with the item id, attempt count and last failure) rather than hanging.
var ErrQuarantined = errors.New("cluster: item quarantined after retry budget exhausted")

// ErrUnknownWorker rejects lease/heartbeat/complete calls from a worker
// the coordinator does not know — never registered, or evicted after
// going silent (typically because the coordinator restarted and lost its
// membership). The HTTP layer maps it to 409 Conflict; workers react by
// re-registering and retrying, which is what lets a fleet ride out a
// coordinator restart without operator help.
var ErrUnknownWorker = errors.New("cluster: unknown worker")

// ItemState is one work item's lifecycle phase.
type ItemState string

const (
	ItemPending     ItemState = "pending"
	ItemLeased      ItemState = "leased"
	ItemDone        ItemState = "done"
	ItemQuarantined ItemState = "quarantined"
)

// Item is the wire form of one unit of work: a kind tag selecting the
// executor on the worker plus an opaque payload.
type Item struct {
	ID      string          `json:"id"`
	Kind    string          `json:"kind"`
	Payload json.RawMessage `json:"payload"`
}

// item is the coordinator's book-keeping for one unit of work.
type item struct {
	Item
	fp string // placement fingerprint (ring key)

	state     ItemState
	worker    string    // current lease holder
	expiry    time.Time // lease deadline
	attempts  int       // lease grants so far
	notBefore time.Time // backoff gate for the next grant
	lastErr   string    // most recent failed attempt's error

	result json.RawMessage
	err    error
	done   chan struct{}
}

// workerState tracks one registered worker.
type workerState struct {
	name     string
	lastSeen time.Time

	completed uint64
	requeued  uint64 // items this worker lost to failure reports
	expired   uint64 // items this worker lost to lease expiry
}

// Config tunes a Coordinator.
type Config struct {
	// LeaseTTL is how long a granted lease lives without a heartbeat;
	// <= 0 means 10s.
	LeaseTTL time.Duration
	// WorkerTTL is how long a silent worker stays on the hash ring;
	// <= 0 means 3 × LeaseTTL.
	WorkerTTL time.Duration
	// RetryBudget is how many lease grants an item gets before it is
	// quarantined; <= 0 means 4.
	RetryBudget int
	// BackoffBase and BackoffMax shape the exponential requeue delay:
	// attempt n waits min(BackoffBase << (n-1), BackoffMax) before it can
	// be leased again. Defaults: 250ms base, 30s max.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// MaxBatch caps how many items one lease call can grant; <= 0 means 8.
	MaxBatch int
	// BackoffJitter spreads requeue backoffs: attempt n waits a duration
	// drawn from [b×(1−BackoffJitter), b] where b is the clamped
	// exponential delay, so a batch of items requeued together does not
	// stampede back in lockstep. 0 means the default 0.2; negative
	// disables jitter. The draw is a hash of (item, attempt, Seed), not a
	// shared random stream, so it is identical across runs regardless of
	// how requeues interleave.
	BackoffJitter float64
	// Seed perturbs the deterministic backoff jitter between otherwise
	// identical deployments.
	Seed int64
	// Publish, when non-nil, receives every completed item's kind and
	// result on the coordinator — the hook the serving layer uses to
	// write worker-produced simulation results into the shared result
	// store.
	Publish func(kind string, payload, result json.RawMessage)
	// VerifyCompletion, when non-nil, checks every successful
	// completion's provenance stamp before it is accepted (wired to
	// cluster.VerifyCompletion when the serving binary runs with the
	// ledger on). A completion that fails verification is treated as a
	// failed attempt: requeued with backoff, quarantined when the
	// budget runs out — a mis-stamping worker can slow an item down but
	// never slip an unattested result into the store.
	VerifyCompletion func(kind string, payload, result, stamp json.RawMessage) error
	// Logger receives structured coordinator logs; nil discards.
	Logger *slog.Logger

	// now overrides the clock in tests.
	now func() time.Time
}

// Coordinator owns the cluster's work queue. It is safe for concurrent
// use; all state transitions happen under one mutex and every API entry
// point first sweeps expired leases, so liveness does not depend on a
// background goroutine (though Janitor can run one to reclaim leases
// while the cluster is otherwise idle).
type Coordinator struct {
	conf Config
	log  *slog.Logger

	mu      sync.Mutex
	items   map[string]*item
	order   []string // enqueue order, for deterministic grant scans
	workers map[string]*workerState
	ring    *ring

	// counters (under mu; exported via Stats).
	leasesGranted uint64
	leaseExpired  uint64
	requeued      uint64
	completed     uint64
	quarantined   uint64
	staleReports  uint64
	evicted       uint64
	unknownCalls  uint64
	stampRejected uint64
}

// NewCoordinator returns a coordinator with the given configuration.
func NewCoordinator(conf Config) *Coordinator {
	if conf.LeaseTTL <= 0 {
		conf.LeaseTTL = 10 * time.Second
	}
	if conf.WorkerTTL <= 0 {
		conf.WorkerTTL = 3 * conf.LeaseTTL
	}
	if conf.BackoffJitter == 0 {
		conf.BackoffJitter = 0.2
	} else if conf.BackoffJitter < 0 {
		conf.BackoffJitter = 0
	} else if conf.BackoffJitter > 1 {
		conf.BackoffJitter = 1
	}
	if conf.RetryBudget <= 0 {
		conf.RetryBudget = 4
	}
	if conf.BackoffBase <= 0 {
		conf.BackoffBase = 250 * time.Millisecond
	}
	if conf.BackoffMax <= 0 {
		conf.BackoffMax = 30 * time.Second
	}
	if conf.MaxBatch <= 0 {
		conf.MaxBatch = 8
	}
	if conf.Logger == nil {
		conf.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if conf.now == nil {
		conf.now = time.Now
	}
	return &Coordinator{
		conf:    conf,
		log:     conf.Logger,
		items:   make(map[string]*item),
		workers: make(map[string]*workerState),
		ring:    newRing(virtualNodes),
	}
}

// LeaseTTL returns the configured lease TTL (advertised to workers at
// registration so they can pace heartbeats).
func (c *Coordinator) LeaseTTL() time.Duration { return c.conf.LeaseTTL }

// itemID derives the deterministic identity of a work item from its
// content, so identical submissions collapse onto one item.
func itemID(kind string, payload []byte) string {
	h := sha256.Sum256(append([]byte(kind+"\x00"), payload...))
	return kind + "-" + hex.EncodeToString(h[:8])
}

// Enqueue admits one work item. fp is the placement fingerprint (ring
// key). Identical (kind, payload) submissions share one item — and one
// retry budget — like the serving layer's singleflight. It returns the
// item id to Wait on.
func (c *Coordinator) Enqueue(kind string, payload json.RawMessage, fp string) string {
	id := itemID(kind, payload)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.items[id]; ok {
		return id
	}
	c.items[id] = &item{
		Item:  Item{ID: id, Kind: kind, Payload: payload},
		fp:    fp,
		state: ItemPending,
		done:  make(chan struct{}),
	}
	c.order = append(c.order, id)
	return id
}

// Wait blocks until the item completes (result), quarantines
// (ErrQuarantined) or ctx expires.
func (c *Coordinator) Wait(ctx context.Context, id string) (json.RawMessage, error) {
	c.mu.Lock()
	it, ok := c.items[id]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("cluster: unknown item %q", id)
	}
	select {
	case <-it.done:
		c.mu.Lock()
		res, err := it.result, it.err
		c.mu.Unlock()
		return res, err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Register adds (or refreshes) a worker on the hash ring.
func (c *Coordinator) Register(name string) error {
	if name == "" {
		return errors.New("cluster: empty worker name")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchLocked(name)
	return nil
}

// touchLocked refreshes the worker's liveness, adding it to the ring on
// first contact.
func (c *Coordinator) touchLocked(name string) *workerState {
	w, ok := c.workers[name]
	if !ok {
		w = &workerState{name: name}
		c.workers[name] = w
		c.ring.add(name)
		c.log.Info("worker joined", "worker", name, "ring", len(c.workers))
	}
	w.lastSeen = c.conf.now()
	return w
}

// lookupLocked resolves a known worker, refreshing its liveness. Unlike
// touchLocked it never creates one: lease, heartbeat and complete calls
// from unknown workers fail with ErrUnknownWorker, so a worker that
// outlives the coordinator's memory of it (restart, eviction) is forced
// back through Register — and onto the hash ring — before it gets work.
func (c *Coordinator) lookupLocked(name string) (*workerState, error) {
	if name == "" {
		return nil, errors.New("cluster: empty worker name")
	}
	w, ok := c.workers[name]
	if !ok {
		c.unknownCalls++
		return nil, fmt.Errorf("%w: %q", ErrUnknownWorker, name)
	}
	w.lastSeen = c.conf.now()
	return w, nil
}

// Lease grants up to max pending items to the worker, preferring items
// the hash ring places on it and stealing any other available item
// otherwise. It returns the granted items (possibly none).
func (c *Coordinator) Lease(workerName string, max int) ([]Item, error) {
	if max <= 0 || max > c.conf.MaxBatch {
		max = c.conf.MaxBatch
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.conf.now()
	c.sweepLocked(now)
	if _, err := c.lookupLocked(workerName); err != nil {
		return nil, err
	}

	var owned, stealable []*item
	for _, id := range c.order {
		it := c.items[id]
		if it.state != ItemPending || now.Before(it.notBefore) {
			continue
		}
		if c.ring.owner(it.fp) == workerName {
			owned = append(owned, it)
		} else {
			stealable = append(stealable, it)
		}
	}
	var out []Item
	for _, it := range append(owned, stealable...) {
		if len(out) >= max {
			break
		}
		it.state = ItemLeased
		it.worker = workerName
		it.expiry = now.Add(c.conf.LeaseTTL)
		it.attempts++
		c.leasesGranted++
		out = append(out, it.Item)
	}
	if len(out) > 0 {
		c.log.Info("leased", "worker", workerName, "items", len(out))
	}
	return out, nil
}

// Heartbeat extends the worker's leases on ids and returns the subset it
// no longer owns (expired and re-granted elsewhere, or finished), which
// the worker should abandon.
func (c *Coordinator) Heartbeat(workerName string, ids []string) (lost []string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.conf.now()
	c.sweepLocked(now)
	if _, err := c.lookupLocked(workerName); err != nil {
		return nil, err
	}
	for _, id := range ids {
		it, ok := c.items[id]
		if !ok || it.state != ItemLeased || it.worker != workerName {
			lost = append(lost, id)
			continue
		}
		it.expiry = now.Add(c.conf.LeaseTTL)
	}
	return lost, nil
}

// Complete reports one item's execution result (or failure) from a
// worker. A report for a lease the worker no longer holds is dropped as
// stale — the first valid completion wins, which is harmless because
// every item is a deterministic simulation. A failure report costs one
// attempt and requeues the item with backoff (or quarantines it), and
// so does a successful report whose provenance stamp fails
// Config.VerifyCompletion.
func (c *Coordinator) Complete(workerName, id string, result, stamp json.RawMessage, errMsg string) (accepted bool, err error) {
	c.mu.Lock()
	now := c.conf.now()
	c.sweepLocked(now)
	w, lerr := c.lookupLocked(workerName)
	if lerr != nil {
		c.mu.Unlock()
		return false, lerr
	}
	it, ok := c.items[id]
	if !ok || it.state != ItemLeased || it.worker != workerName {
		c.staleReports++
		c.mu.Unlock()
		return false, nil
	}
	if errMsg != "" {
		it.lastErr = errMsg
		w.requeued++
		c.requeueLocked(it, now)
		c.log.Warn("attempt failed", "item", id, "worker", workerName, "attempts", it.attempts, "err", errMsg)
		c.mu.Unlock()
		return true, nil
	}
	if c.conf.VerifyCompletion != nil {
		if verr := c.conf.VerifyCompletion(it.Kind, it.Payload, result, stamp); verr != nil {
			c.stampRejected++
			it.lastErr = "provenance stamp rejected: " + verr.Error()
			w.requeued++
			c.requeueLocked(it, now)
			c.log.Warn("completion stamp rejected", "item", id, "worker", workerName,
				"attempts", it.attempts, "err", verr.Error())
			c.mu.Unlock()
			return false, nil
		}
	}
	it.state = ItemDone
	it.result = result
	it.worker = ""
	c.completed++
	w.completed++
	close(it.done)
	c.mu.Unlock()
	c.log.Info("item done", "item", id, "worker", workerName)
	if c.conf.Publish != nil {
		c.conf.Publish(it.Kind, it.Payload, result)
	}
	return true, nil
}

// requeueLocked returns a leased item to the pending queue with backoff,
// or quarantines it when the retry budget is spent.
func (c *Coordinator) requeueLocked(it *item, now time.Time) {
	it.worker = ""
	if it.attempts >= c.conf.RetryBudget {
		it.state = ItemQuarantined
		it.err = fmt.Errorf("%w: item %s after %d attempts (last error: %s)",
			ErrQuarantined, it.ID, it.attempts, orStr(it.lastErr, "lease expired"))
		c.quarantined++
		close(it.done)
		c.log.Error("item quarantined", "item", it.ID, "attempts", it.attempts, "last_err", it.lastErr)
		return
	}
	// Clamp the exponent before shifting: with a large RetryBudget the
	// shift can exceed 63 bits and wrap to a small positive duration that
	// the <= 0 guard below never catches.
	backoff := c.conf.BackoffMax
	if shift := it.attempts - 1; shift < 63 && c.conf.BackoffBase<<shift>>shift == c.conf.BackoffBase {
		backoff = c.conf.BackoffBase << shift
	}
	if backoff > c.conf.BackoffMax || backoff <= 0 {
		backoff = c.conf.BackoffMax
	}
	// Subtract-only jitter: the wait stays within the clamped exponential
	// window (tests and capacity planning can still reason about the
	// ceiling) while a batch of items requeued by one dead worker fans
	// back out instead of stampeding the next lease call together.
	if frac := c.conf.BackoffJitter; frac > 0 {
		backoff -= time.Duration(float64(backoff) * frac *
			jitter01(it.ID, strconv.Itoa(it.attempts), strconv.FormatInt(c.conf.Seed, 10)))
	}
	it.state = ItemPending
	it.notBefore = now.Add(backoff)
	c.requeued++
}

func orStr(s, fallback string) string {
	if s == "" {
		return fallback
	}
	return s
}

// sweepLocked requeues expired leases and drops silent workers from the
// ring. Called under mu from every API entry point and the janitor.
func (c *Coordinator) sweepLocked(now time.Time) {
	for _, id := range c.order {
		it := c.items[id]
		if it.state == ItemLeased && now.After(it.expiry) {
			c.leaseExpired++
			if w := c.workers[it.worker]; w != nil {
				w.expired++
			}
			c.log.Warn("lease expired", "item", id, "worker", it.worker, "attempts", it.attempts)
			it.lastErr = orStr(it.lastErr, fmt.Sprintf("lease expired on worker %s", it.worker))
			c.requeueLocked(it, now)
		}
	}
	for name, w := range c.workers {
		if now.Sub(w.lastSeen) > c.conf.WorkerTTL {
			delete(c.workers, name)
			c.ring.remove(name)
			c.evicted++
			c.log.Warn("worker evicted after missed heartbeats", "worker", name)
		}
	}
}

// Janitor runs the expiry sweep every LeaseTTL/2 until stop is closed,
// so leases are reclaimed even while no worker is calling in.
func (c *Coordinator) Janitor(stop <-chan struct{}) {
	t := time.NewTicker(c.conf.LeaseTTL / 2)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			c.mu.Lock()
			c.sweepLocked(c.conf.now())
			c.mu.Unlock()
		case <-stop:
			return
		}
	}
}

// WorkerStats is one worker's view in a Stats snapshot.
type WorkerStats struct {
	Name      string `json:"name"`
	Leased    int    `json:"leased"` // items currently held
	Completed uint64 `json:"completed"`
	Requeued  uint64 `json:"requeued"` // lost to failure reports
	Expired   uint64 `json:"expired"`  // lost to lease expiry
}

// Stats is a point-in-time snapshot of the cluster.
type Stats struct {
	Pending     int `json:"pending"`
	Leased      int `json:"leased"`
	Done        int `json:"done"`
	Quarantined int `json:"quarantined"`

	LeasesGranted uint64 `json:"leases_granted"`
	LeaseExpired  uint64 `json:"lease_expired"`
	Requeued      uint64 `json:"requeued"`
	Completed     uint64 `json:"completed"`
	QuarantinedN  uint64 `json:"quarantined_total"`
	StaleReports  uint64 `json:"stale_reports"`
	// StampRejected counts successful completions refused because their
	// provenance stamp failed verification.
	StampRejected uint64 `json:"stamp_rejected"`
	// WorkersEvicted counts workers dropped from the ring after missing
	// enough heartbeats; UnknownWorkerCalls counts protocol calls
	// rejected with ErrUnknownWorker (each one is a worker being pushed
	// back through registration).
	WorkersEvicted     uint64 `json:"workers_evicted"`
	UnknownWorkerCalls uint64 `json:"unknown_worker_calls"`

	Workers []WorkerStats `json:"workers"`
}

// Stats snapshots the coordinator (sweeping expired leases first, so the
// numbers reflect liveness, not stale grants).
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked(c.conf.now())
	s := Stats{
		LeasesGranted:      c.leasesGranted,
		LeaseExpired:       c.leaseExpired,
		Requeued:           c.requeued,
		Completed:          c.completed,
		QuarantinedN:       c.quarantined,
		StaleReports:       c.staleReports,
		StampRejected:      c.stampRejected,
		WorkersEvicted:     c.evicted,
		UnknownWorkerCalls: c.unknownCalls,
	}
	held := make(map[string]int)
	for _, id := range c.order {
		switch it := c.items[id]; it.state {
		case ItemPending:
			s.Pending++
		case ItemLeased:
			s.Leased++
			held[it.worker]++
		case ItemDone:
			s.Done++
		case ItemQuarantined:
			s.Quarantined++
		}
	}
	names := make([]string, 0, len(c.workers))
	for name := range c.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w := c.workers[name]
		s.Workers = append(s.Workers, WorkerStats{
			Name:      name,
			Leased:    held[name],
			Completed: w.completed,
			Requeued:  w.requeued,
			Expired:   w.expired,
		})
	}
	return s
}
