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
// Pending items are granted in enqueue order to whichever worker asks
// next, which is what lets a 1-worker cluster drain everything and a
// 4-worker cluster survive the loss of one.
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

// workerState tracks one worker the coordinator has heard from.
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
	// RetryBudget is how many lease grants an item gets before it is
	// quarantined; <= 0 means 4.
	RetryBudget int
	// BackoffBase and BackoffMax shape the exponential requeue delay:
	// attempt n waits min(BackoffBase << (n-1), BackoffMax), less up to
	// 20% jitter, before it can be leased again. Defaults: 250ms base,
	// 30s max.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// MaxBatch caps how many items one lease call can grant; <= 0 means 8.
	MaxBatch int
	// Publish, when non-nil, receives every completed item's kind and
	// result on the coordinator — the hook the serving layer uses to
	// write worker-produced simulation results into the shared result
	// store.
	Publish func(kind string, payload, result json.RawMessage)
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

	// counters (under mu; exported via Stats).
	leasesGranted uint64
	leaseExpired  uint64
	requeued      uint64
	completed     uint64
	quarantined   uint64
	staleReports  uint64
	evicted       uint64
}

// NewCoordinator returns a coordinator with the given configuration.
func NewCoordinator(conf Config) *Coordinator {
	if conf.LeaseTTL <= 0 {
		conf.LeaseTTL = 10 * time.Second
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

// Enqueue admits one work item. Identical (kind, payload) submissions
// share one item — and one retry budget — like the serving layer's
// singleflight. It returns the item id to Wait on.
func (c *Coordinator) Enqueue(kind string, payload json.RawMessage) string {
	id := itemID(kind, payload)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.items[id]; ok {
		return id
	}
	c.items[id] = &item{
		Item:  Item{ID: id, Kind: kind, Payload: payload},
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

// Register records (or refreshes) a worker. Lease, heartbeat and
// complete record an unseen worker the same way; the /register endpoint
// exists to hand the worker its pacing.
func (c *Coordinator) Register(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := c.touchLocked(name)
	return err
}

// touchLocked refreshes the worker's liveness, recording it on first
// contact.
func (c *Coordinator) touchLocked(name string) (*workerState, error) {
	if name == "" {
		return nil, errors.New("cluster: empty worker name")
	}
	w, ok := c.workers[name]
	if !ok {
		w = &workerState{name: name}
		c.workers[name] = w
		c.log.Info("worker joined", "worker", name, "workers", len(c.workers))
	}
	w.lastSeen = c.conf.now()
	return w, nil
}

// Lease grants up to max pending items to the worker, in enqueue order.
// It returns the granted items (possibly none).
func (c *Coordinator) Lease(workerName string, max int) ([]Item, error) {
	if max <= 0 || max > c.conf.MaxBatch {
		max = c.conf.MaxBatch
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.conf.now()
	c.sweepLocked(now)
	if _, err := c.touchLocked(workerName); err != nil {
		return nil, err
	}

	var out []Item
	for _, id := range c.order {
		if len(out) >= max {
			break
		}
		it := c.items[id]
		if it.state != ItemPending || now.Before(it.notBefore) {
			continue
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
	if _, err := c.touchLocked(workerName); err != nil {
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
// attempt and requeues the item with backoff (or quarantines it).
func (c *Coordinator) Complete(workerName, id string, result json.RawMessage, errMsg string) (accepted bool, err error) {
	c.mu.Lock()
	now := c.conf.now()
	c.sweepLocked(now)
	w, lerr := c.touchLocked(workerName)
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
	it.state = ItemPending
	it.notBefore = now.Add(backoff(c.conf.BackoffBase, c.conf.BackoffMax, it.attempts,
		requeueJitter, it.ID, strconv.Itoa(it.attempts)))
	c.requeued++
}

func orStr(s, fallback string) string {
	if s == "" {
		return fallback
	}
	return s
}

// sweepLocked requeues expired leases and forgets workers silent for
// three lease TTLs. Called under mu from every API entry point and the
// janitor.
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
		if now.Sub(w.lastSeen) > 3*c.conf.LeaseTTL {
			delete(c.workers, name)
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
	// WorkersEvicted counts workers forgotten after three lease TTLs of
	// silence.
	WorkersEvicted uint64 `json:"workers_evicted"`

	Workers []WorkerStats `json:"workers"`
}

// Stats snapshots the coordinator (sweeping expired leases first, so the
// numbers reflect liveness, not stale grants).
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked(c.conf.now())
	s := Stats{
		LeasesGranted:  c.leasesGranted,
		LeaseExpired:   c.leaseExpired,
		Requeued:       c.requeued,
		Completed:      c.completed,
		QuarantinedN:   c.quarantined,
		StaleReports:   c.staleReports,
		WorkersEvicted: c.evicted,
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
