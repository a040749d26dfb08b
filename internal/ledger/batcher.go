package ledger

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrBatcherClosed reports a submission to a batcher that has already
// drained and stopped.
var ErrBatcherClosed = errors.New("ledger: batcher closed")

// Ticket is a submitter's claim on a pending leaf: Done closes when
// the leaf's batch seals (or fails), after which Proof returns the
// inclusion proof or the flush error.
type Ticket struct {
	done  chan struct{}
	proof InclusionProof
	err   error
}

// Done returns a channel closed once the ticket's batch has sealed.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Proof returns the inclusion proof after Done; calling it before Done
// closes returns an error rather than a partial proof.
func (t *Ticket) Proof() (InclusionProof, error) {
	select {
	case <-t.done:
		return t.proof, t.err
	default:
		return InclusionProof{}, errors.New("ledger: batch not sealed yet")
	}
}

// Wait blocks until the batch seals or ctx expires.
func (t *Ticket) Wait(ctx context.Context) (InclusionProof, error) {
	select {
	case <-t.done:
		return t.proof, t.err
	case <-ctx.Done():
		return InclusionProof{}, ctx.Err()
	}
}

// BatcherCounters snapshots batcher activity.
type BatcherCounters struct {
	// Submitted counts leaves accepted into batches.
	Submitted uint64
	// Sealed counts leaves sealed into the ledger.
	Sealed uint64
	// Batches counts sealed batches.
	Batches uint64
	// Errors counts leaves whose batch failed to seal or that were
	// submitted after Close.
	Errors uint64
}

// Batcher amortizes ledger appends: submitters enqueue leaves and get
// a Ticket immediately; a single flusher goroutine seals a batch when
// it reaches MaxBatch leaves or the oldest pending leaf has waited
// MaxWait, whichever comes first. All ledger I/O — the Merkle build,
// the atomic rewrite, the fsyncs, the read-back — happens on the
// flusher, never on a submitter, which is what makes admission under
// the serve path's lock cheap: Submit is an append to a slice and at
// most two non-blocking channel sends.
type Batcher struct {
	lg       *Ledger
	maxBatch int
	maxWait  time.Duration

	mu      sync.Mutex
	pending []pendingLeaf
	closed  bool

	arm  chan struct{} // pending went 0 → 1: start the max-wait clock
	kick chan struct{} // pending reached maxBatch: seal now
	stop chan struct{}
	wg   sync.WaitGroup

	submitted atomic.Uint64
	sealed    atomic.Uint64
	batches   atomic.Uint64
	errs      atomic.Uint64
}

type pendingLeaf struct {
	leaf Leaf
	tick *Ticket
}

// NewBatcher starts a batcher over lg. maxBatch <= 0 defaults to 64
// leaves; maxWait <= 0 defaults to 25ms.
func NewBatcher(lg *Ledger, maxBatch int, maxWait time.Duration) *Batcher {
	if maxBatch <= 0 {
		maxBatch = 64
	}
	if maxWait <= 0 {
		maxWait = 25 * time.Millisecond
	}
	b := &Batcher{
		lg:       lg,
		maxBatch: maxBatch,
		maxWait:  maxWait,
		arm:      make(chan struct{}, 1),
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
	}
	b.wg.Add(1)
	go b.run()
	return b
}

// Submit enqueues a leaf and returns its ticket without blocking on
// any I/O. After Close the ticket comes back already failed with
// ErrBatcherClosed.
func (b *Batcher) Submit(leaf Leaf) *Ticket {
	t := &Ticket{done: make(chan struct{})}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		b.errs.Add(1)
		t.err = ErrBatcherClosed
		close(t.done)
		return t
	}
	b.pending = append(b.pending, pendingLeaf{leaf: leaf, tick: t})
	n := len(b.pending)
	b.mu.Unlock()
	b.submitted.Add(1)
	if n == 1 {
		signal(b.arm)
	}
	if n >= b.maxBatch {
		signal(b.kick)
	}
	return t
}

// Append is the blocking form: submit, wait for the seal, return the
// proof. It is what callers off the hot path (backfill, tests) use.
func (b *Batcher) Append(ctx context.Context, leaf Leaf) (InclusionProof, error) {
	return b.Submit(leaf).Wait(ctx)
}

func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

func (b *Batcher) run() {
	defer b.wg.Done()
	timer := time.NewTimer(b.maxWait)
	defer timer.Stop()
	for {
		select {
		case <-b.stop:
			b.flush()
			return
		case <-b.arm:
		case <-b.kick:
			b.flush()
			continue
		}
		// At least one leaf is pending: seal on the threshold kick or
		// when the oldest leaf has waited maxWait.
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(b.maxWait)
		select {
		case <-b.stop:
			b.flush()
			return
		case <-b.kick:
		case <-timer.C:
		}
		b.flush()
	}
}

// flush seals everything pending into one record and resolves the
// tickets. Concurrent calls are safe — the second sees no pending
// leaves and does nothing.
func (b *Batcher) flush() {
	b.mu.Lock()
	batch := b.pending
	b.pending = nil
	b.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	leaves := make([]Leaf, len(batch))
	for i, p := range batch {
		leaves[i] = p.leaf
	}
	rec, err := b.lg.Append(leaves)
	if err != nil {
		b.errs.Add(uint64(len(batch)))
		for _, p := range batch {
			p.tick.err = err
			close(p.tick.done)
		}
		return
	}
	b.batches.Add(1)
	b.sealed.Add(uint64(len(batch)))
	proofs := ProofsFor(rec)
	for i, p := range batch {
		p.tick.proof = proofs[i]
		close(p.tick.done)
	}
}

// Flush seals whatever is pending right now, synchronously. Intended
// for tests and drain points; concurrent traffic keeps batching.
func (b *Batcher) Flush() { b.flush() }

// Close drains pending leaves into a final batch and stops the
// flusher. Submissions after Close fail with ErrBatcherClosed.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		b.wg.Wait()
		return
	}
	b.closed = true
	b.mu.Unlock()
	close(b.stop)
	b.wg.Wait()
}

// Counters snapshots batcher activity.
func (b *Batcher) Counters() BatcherCounters {
	return BatcherCounters{
		Submitted: b.submitted.Load(),
		Sealed:    b.sealed.Load(),
		Batches:   b.batches.Load(),
		Errors:    b.errs.Load(),
	}
}
