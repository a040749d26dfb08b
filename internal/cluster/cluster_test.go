package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/crashcampaign"
	"repro/internal/engine"
	"repro/internal/workload"
)

// testCampaign is the small campaign every cluster scenario sweeps: 2
// benches × 2 failure-safe schemes = 4 tuple items, with the torn-write
// fault on so the requeue path replays non-trivial classification work.
func testCampaign() crashcampaign.Config {
	faults, err := crashcampaign.ParseFaults("torn")
	if err != nil {
		panic(err)
	}
	return crashcampaign.Config{
		Benches: []workload.Kind{workload.Queue, workload.StringSwap},
		Schemes: []core.Scheme{core.Proteus, core.ATOM},
		Params: workload.Params{Threads: 2, InitOps: 64, SimOps: 16, Seed: 11,
			SSItems: 64, SSStrSize: 64, ListNodes: 2, ListElems: 16},
		Sim:    config.Default(),
		Sweep:  6,
		Faults: faults,
		Seed:   1,
	}
}

// mountCoordinator serves the coordinator exactly the way proteus-served
// does: under /v1/cluster/, which is the prefix the Worker client dials.
func mountCoordinator(t *testing.T, co *Coordinator) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle("/v1/cluster/", http.StripPrefix("/v1/cluster", co.Handler()))
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func startWorker(t *testing.T, w *Worker) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(ctx)
	}()
	return func() {
		cancel()
		<-done
	}
}

func newTestWorker(name, url string, batch int) *Worker {
	return &Worker{
		Name:        name,
		Coordinator: url,
		Engine:      engine.New(engine.Config{Workers: 2}),
		Batch:       batch,
		Poll:        10 * time.Millisecond,
	}
}

// runClusterCampaign executes the test campaign on a fresh coordinator
// with the given number of workers, optionally SIGKILL-simulating one
// mid-sweep, and returns the canonical report bytes plus the end-of-run
// stats.
func runClusterCampaign(t *testing.T, workers int, killOne bool) ([]byte, Stats) {
	t.Helper()
	co := NewCoordinator(Config{
		LeaseTTL:    400 * time.Millisecond,
		RetryBudget: 6,
		BackoffBase: 5 * time.Millisecond,
	})
	ts := mountCoordinator(t, co)

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	type campaignOut struct {
		rep *crashcampaign.Report
		err error
	}
	out := make(chan campaignOut, 1)
	go func() {
		rep, err := RunCampaign(ctx, co, testCampaign())
		out <- campaignOut{rep, err}
	}()

	var stops []func()
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()

	if killOne {
		// The victim boots alone, leases a batch, and "dies" holding it:
		// its context is cancelled before execution, so nothing completes
		// and nothing heartbeats — exactly what SIGKILL looks like to the
		// coordinator. Only then do the survivors join, so the requeue
		// path is guaranteed to run.
		victimCtx, victimCancel := context.WithCancel(context.Background())
		leased := make(chan struct{})
		var once sync.Once
		victim := newTestWorker("victim", ts.URL, 3)
		victim.Hooks.Leased = func(items []Item) {
			once.Do(func() {
				victimCancel()
				close(leased)
			})
		}
		victimDone := make(chan struct{})
		go func() {
			defer close(victimDone)
			_ = victim.Run(victimCtx)
		}()
		select {
		case <-leased:
		case <-time.After(30 * time.Second):
			t.Fatal("victim worker never leased an item")
		}
		<-victimDone
		for i := 0; i < workers-1; i++ {
			stops = append(stops, startWorker(t, newTestWorker(workerName(i), ts.URL, 2)))
		}
	} else {
		for i := 0; i < workers; i++ {
			stops = append(stops, startWorker(t, newTestWorker(workerName(i), ts.URL, 2)))
		}
	}

	res := <-out
	if res.err != nil {
		t.Fatalf("cluster campaign (%d workers, kill=%v): %v", workers, killOne, res.err)
	}
	var buf bytes.Buffer
	if err := res.rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), co.Stats()
}

func workerName(i int) string {
	return string(rune('a'+i)) + "-worker"
}

// TestClusterDeterministicAcrossWorkerCountAndLoss is the cluster's core
// guarantee: a campaign swept by 1 worker, by 4 workers, and by 4 workers
// one of which is killed mid-sweep (leases expired, items requeued within
// the retry budget) produces byte-identical reports — and identical to a
// plain in-process crashcampaign.Run of the same config.
func TestClusterDeterministicAcrossWorkerCountAndLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scenario campaign sweep")
	}

	one, statsOne := runClusterCampaign(t, 1, false)
	four, statsFour := runClusterCampaign(t, 4, false)
	loss, statsLoss := runClusterCampaign(t, 4, true)

	if !bytes.Equal(one, four) {
		t.Errorf("1-worker and 4-worker reports differ:\n1w: %s\n4w: %s", one, four)
	}
	if !bytes.Equal(one, loss) {
		t.Errorf("1-worker and worker-loss reports differ:\n1w: %s\nloss: %s", one, loss)
	}

	// The loss scenario must actually have exercised the failure path:
	// expired leases, requeues, and no quarantine (budget respected).
	if statsLoss.LeaseExpired == 0 {
		t.Errorf("worker-loss run expired no leases; victim did not hold work")
	}
	if statsLoss.Requeued == 0 {
		t.Errorf("worker-loss run requeued nothing")
	}
	for _, s := range []Stats{statsOne, statsFour, statsLoss} {
		if s.Quarantined != 0 || s.QuarantinedN != 0 {
			t.Errorf("campaign quarantined items: %+v", s)
		}
		if s.Done != 4 {
			t.Errorf("campaign finished %d/4 items", s.Done)
		}
	}

	// And the cluster must agree with a local, single-process run.
	c := testCampaign()
	c.Engine = engine.New(engine.Config{})
	rep, err := crashcampaign.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	var local bytes.Buffer
	if err := rep.WriteJSON(&local); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one, local.Bytes()) {
		t.Errorf("cluster report differs from local crashcampaign.Run:\ncluster: %s\nlocal: %s", one, local.Bytes())
	}

	// The cluster scenarios all ran the default fast-forward stepper; a
	// local per-cycle reference run must land on the same report bytes.
	cRef := testCampaign()
	cRef.Stepper = core.StepperReference
	cRef.Engine = engine.New(engine.Config{Stepper: core.StepperReference})
	repRef, err := crashcampaign.Run(context.Background(), cRef)
	if err != nil {
		t.Fatal(err)
	}
	var localRef bytes.Buffer
	if err := repRef.WriteJSON(&localRef); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one, localRef.Bytes()) {
		t.Errorf("cluster report differs from reference-stepper crashcampaign.Run:\ncluster: %s\nreference: %s", one, localRef.Bytes())
	}
}

// TestClusterMatchesLocalWhenFaultsOmitClean: a config whose Faults list
// leaves out FaultClean must sweep the same injections locally and on the
// cluster. Workers re-parse fault names, so both sides have to agree on
// the implied clean baseline.
func TestClusterMatchesLocalWhenFaultsOmitClean(t *testing.T) {
	c := testCampaign()
	c.Faults = []crashcampaign.Fault{crashcampaign.FaultTorn}

	co := NewCoordinator(Config{LeaseTTL: 5 * time.Second})
	ts := mountCoordinator(t, co)
	stop := startWorker(t, newTestWorker("solo", ts.URL, 2))
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	remote, err := RunCampaign(ctx, co, c)
	if err != nil {
		t.Fatal(err)
	}

	c.Engine = engine.New(engine.Config{})
	local, err := crashcampaign.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if remote.Totals.Injections != local.Totals.Injections {
		t.Fatalf("cluster swept %d injections, local %d", remote.Totals.Injections, local.Totals.Injections)
	}
	var a, b bytes.Buffer
	if err := remote.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := local.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("cluster and local reports differ")
	}
}

// TestWorkerRunsLeaseConcurrently: a worker runs the items of one lease
// at once, so a lease of tuples fills its engine's slots instead of
// sweeping one tuple at a time. Each simulation start waits (up to a
// second) for a second one, so the overlap does not depend on timing.
func TestWorkerRunsLeaseConcurrently(t *testing.T) {
	var mu sync.Mutex
	inflight, peak := 0, 0
	second := make(chan struct{})
	w := newTestWorker("solo", "", 4)
	w.Engine = engine.New(engine.Config{Workers: 2, Progress: func(ev engine.Event) {
		mu.Lock()
		switch ev.Phase {
		case engine.JobStart:
			inflight++
			if inflight > peak {
				peak = inflight
				if peak == 2 {
					close(second)
				}
			}
		case engine.JobDone:
			inflight--
		}
		mu.Unlock()
		if ev.Phase == engine.JobStart {
			select {
			case <-second:
			case <-time.After(time.Second):
			}
		}
	}})

	co := NewCoordinator(Config{LeaseTTL: 5 * time.Second})
	ts := mountCoordinator(t, co)
	w.Coordinator = ts.URL
	stop := startWorker(t, w)
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	if _, err := RunCampaign(ctx, co, testCampaign()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if peak < 2 {
		t.Fatalf("at most %d simulation ran at once on a 2-slot worker leasing 4 tuples", peak)
	}
}

// TestQuarantinePoisonedItem: an item that fails every attempt must burn
// its retry budget and surface ErrQuarantined to the waiter instead of
// looping forever.
func TestQuarantinePoisonedItem(t *testing.T) {
	co := NewCoordinator(Config{
		LeaseTTL:    5 * time.Second,
		RetryBudget: 3,
		BackoffBase: time.Millisecond,
	})
	ts := mountCoordinator(t, co)
	stop := startWorker(t, newTestWorker("w1", ts.URL, 2))
	defer stop()

	// A sim item naming an unknown benchmark fails compilation on every
	// worker that tries it: the canonical poisoned job.
	id := co.Enqueue(KindSim, json.RawMessage(`{"bench":"NOPE","scheme":"Proteus"}`), "deadbeef")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_, err := co.Wait(ctx, id)
	if !errors.Is(err, ErrQuarantined) {
		t.Fatalf("Wait = %v, want ErrQuarantined", err)
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Errorf("quarantine error %q does not report the exhausted budget", err)
	}
	if s := co.Stats(); s.QuarantinedN != 1 || s.Quarantined != 1 {
		t.Errorf("stats %+v, want exactly one quarantined item", s)
	}
}

// TestLeaseExpiryRequeuesAndStaleCompletionIsDropped drives the lease
// state machine directly with an injected clock: a worker that leases and
// goes silent loses the item at TTL, another worker picks it up, and the
// original's late completion is dropped as stale.
func TestLeaseExpiryRequeuesAndStaleCompletionIsDropped(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := &now
	co := NewCoordinator(Config{
		LeaseTTL:    10 * time.Second,
		WorkerTTL:   time.Hour, // keep both workers on the ring throughout
		RetryBudget: 3,
		BackoffBase: time.Millisecond,
		now:         func() time.Time { return *clock },
	})

	for _, name := range []string{"w1", "w2"} {
		if err := co.Register(name); err != nil {
			t.Fatal(err)
		}
	}
	id := co.Enqueue(KindSim, json.RawMessage(`{}`), "cafe")
	got, err := co.Lease("w1", 1)
	if err != nil || len(got) != 1 {
		t.Fatalf("w1 lease = (%v, %v), want the item", got, err)
	}
	if got2, _ := co.Lease("w2", 1); len(got2) != 0 {
		t.Fatalf("w2 leased %v while w1 holds the lease", got2)
	}

	now = now.Add(11 * time.Second) // past TTL: w1's lease is dead
	if got2, _ := co.Lease("w2", 1); len(got2) != 0 {
		// First post-expiry grant is gated by the backoff window.
		t.Fatalf("w2 leased %v inside the backoff window", got2)
	}
	now = now.Add(time.Second)
	got2, _ := co.Lease("w2", 1)
	if len(got2) != 1 || got2[0].ID != id {
		t.Fatalf("w2 post-expiry lease = %v, want requeued item", got2)
	}

	// w1 comes back from the dead and reports: stale, dropped.
	accepted, err := co.Complete("w1", id, json.RawMessage(`{"cycles":1}`), nil, "")
	if err != nil || accepted {
		t.Fatalf("stale completion = (%v, %v), want dropped", accepted, err)
	}
	// w2's report wins.
	accepted, err = co.Complete("w2", id, json.RawMessage(`{"cycles":1}`), nil, "")
	if err != nil || !accepted {
		t.Fatalf("live completion = (%v, %v), want accepted", accepted, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := co.Wait(ctx, id); err != nil {
		t.Fatalf("Wait after completion: %v", err)
	}
	s := co.Stats()
	if s.LeaseExpired != 1 || s.Requeued != 1 || s.StaleReports != 1 || s.Completed != 1 {
		t.Errorf("stats %+v, want 1 expiry / 1 requeue / 1 stale / 1 completed", s)
	}
}

// TestHeartbeatKeepsLeaseAlive: heartbeats extend the lease past the
// nominal TTL, and report which leases a worker has lost.
func TestHeartbeatKeepsLeaseAlive(t *testing.T) {
	now := time.Unix(2000, 0)
	clock := &now
	co := NewCoordinator(Config{
		LeaseTTL:    10 * time.Second,
		WorkerTTL:   time.Hour,
		RetryBudget: 3,
		now:         func() time.Time { return *clock },
	})
	if err := co.Register("w1"); err != nil {
		t.Fatal(err)
	}
	id := co.Enqueue(KindSim, json.RawMessage(`{}`), "beef")
	if got, _ := co.Lease("w1", 1); len(got) != 1 {
		t.Fatal("lease failed")
	}
	for i := 0; i < 5; i++ {
		now = now.Add(8 * time.Second) // each step would expire an unrefreshed lease at 10s
		lost, err := co.Heartbeat("w1", []string{id})
		if err != nil || len(lost) != 0 {
			t.Fatalf("heartbeat %d = (%v, %v), want kept", i, lost, err)
		}
	}
	if s := co.Stats(); s.LeaseExpired != 0 {
		t.Errorf("lease expired despite heartbeats: %+v", s)
	}
	lost, _ := co.Heartbeat("w1", []string{"item-never-existed"})
	if len(lost) != 1 {
		t.Errorf("heartbeat on unknown item reported lost=%v, want 1 entry", lost)
	}
}

// TestRingLocalityAndStability: keys move only when their owner leaves.
func TestRingLocalityAndStability(t *testing.T) {
	r := newRing(64)
	for _, w := range []string{"w1", "w2", "w3", "w4"} {
		r.add(w)
	}
	keys := make([]string, 200)
	before := make(map[string]string)
	for i := range keys {
		keys[i] = engine.Job{Kind: workload.Queue, Params: workload.Params{Seed: int64(i)},
			Scheme: core.Proteus, Config: config.Default()}.Fingerprint() + string(rune(i))
		before[keys[i]] = r.owner(keys[i])
	}
	owners := map[string]int{}
	for _, k := range keys {
		owners[before[k]]++
	}
	if len(owners) < 3 {
		t.Errorf("200 keys landed on %d workers; want a spread across >= 3", len(owners))
	}
	r.remove("w2")
	for _, k := range keys {
		after := r.owner(k)
		if before[k] != "w2" && after != before[k] {
			t.Errorf("key %q moved %s -> %s though its owner never left", k, before[k], after)
		}
		if after == "w2" {
			t.Errorf("key %q still owned by removed worker", k)
		}
	}
}

// TestSimWorkRoundTrip: a sim item's payload, the engine.Job's JSON
// encoding, decodes to a job with the same fingerprint, so ring
// placement, memo keys and store keys all agree across the network hop.
func TestSimWorkRoundTrip(t *testing.T) {
	cfg := config.Default()
	cfg.Cores = 2
	j := engine.Job{
		Kind:   workload.BTree,
		Params: workload.Params{Threads: 2, InitOps: 128, SimOps: 32, Seed: 7},
		Scheme: core.ATOM,
		Config: cfg,
	}
	data, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	var back engine.Job
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != j.Fingerprint() {
		t.Fatalf("wire round trip changed the job fingerprint: %s -> %s", j.Fingerprint(), back.Fingerprint())
	}
}

// TestEnqueueDeduplicates: identical submissions share one item and one
// retry budget.
func TestEnqueueDeduplicates(t *testing.T) {
	co := NewCoordinator(Config{})
	a := co.Enqueue(KindSim, json.RawMessage(`{"bench":"QE"}`), "aa")
	b := co.Enqueue(KindSim, json.RawMessage(`{"bench":"QE"}`), "aa")
	c := co.Enqueue(KindSim, json.RawMessage(`{"bench":"HM"}`), "bb")
	if a != b {
		t.Errorf("identical payloads got distinct items %s / %s", a, b)
	}
	if a == c {
		t.Errorf("distinct payloads shared item %s", a)
	}
	if s := co.Stats(); s.Pending != 2 {
		t.Errorf("pending = %d, want 2", s.Pending)
	}
}

// TestBackoffShiftClampAtHighRetryBudget pins the overflow clamp in
// requeueLocked. BackoffBase<<(attempts-1) is computed in int64
// nanoseconds; with a high retry budget the shift walks past 63 bits and
// the product wraps mod 2^64. A base of (1<<34 + 1)ns wraps at attempt 31
// to exactly 1<<30 ns (~1.07s) — positive and below BackoffMax, so the
// old "> BackoffMax || <= 0" guard accepted it and the backoff window
// silently collapsed. The clamp must hold every post-overflow attempt at
// BackoffMax.
func TestBackoffShiftClampAtHighRetryBudget(t *testing.T) {
	const (
		base = time.Duration(1<<34 + 1) // ~17.18s, odd so the wrap is exact
		max  = 30 * time.Second
	)
	now := time.Unix(3000, 0)
	clock := &now
	co := NewCoordinator(Config{
		LeaseTTL:    time.Hour,
		WorkerTTL:   24 * time.Hour,
		RetryBudget: 64,
		BackoffBase: base,
		BackoffMax:  max,
		now:         func() time.Time { return *clock },
	})
	if err := co.Register("w1"); err != nil {
		t.Fatal(err)
	}
	id := co.Enqueue(KindSim, json.RawMessage(`{}`), "feed")

	// Burn attempts 1..30: lease, fail, and skip far past any backoff.
	for i := 0; i < 30; i++ {
		got, err := co.Lease("w1", 1)
		if err != nil || len(got) != 1 {
			t.Fatalf("attempt %d: lease = (%v, %v), want the item", i+1, got, err)
		}
		if _, err := co.Complete("w1", id, nil, nil, "injected failure"); err != nil {
			t.Fatalf("attempt %d: fail report: %v", i+1, err)
		}
		now = now.Add(max + time.Second)
	}

	// Attempt 31: the shift by 30 wraps. The requeue window must still be
	// the full BackoffMax, not the wrapped ~1.07s.
	if got, _ := co.Lease("w1", 1); len(got) != 1 {
		t.Fatal("attempt 31: item not leasable")
	}
	if _, err := co.Complete("w1", id, nil, nil, "injected failure"); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Second) // far beyond the wrapped window
	if got, _ := co.Lease("w1", 1); len(got) != 0 {
		t.Fatalf("item leasable 2s after failure 31: backoff wrapped instead of clamping to %v", max)
	}
	now = now.Add(max - 2*time.Second)
	if got, _ := co.Lease("w1", 1); len(got) != 1 {
		t.Fatalf("item not leasable after the full %v clamped backoff", max)
	}
}
