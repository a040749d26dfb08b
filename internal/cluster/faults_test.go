package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/workload"
)

// TestStrictRegistrationRejectsUnknownWorker: lease, heartbeat and
// complete from a worker the coordinator never met fail with
// ErrUnknownWorker (409 over HTTP) instead of silently auto-registering
// it off the ring.
func TestStrictRegistrationRejectsUnknownWorker(t *testing.T) {
	co := NewCoordinator(Config{})
	co.Enqueue(KindSim, json.RawMessage(`{}`), "aa")

	if _, err := co.Lease("ghost", 1); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("Lease from unregistered worker = %v, want ErrUnknownWorker", err)
	}
	if _, err := co.Heartbeat("ghost", []string{"x"}); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("Heartbeat from unregistered worker = %v, want ErrUnknownWorker", err)
	}
	if _, err := co.Complete("ghost", "x", nil, nil, ""); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("Complete from unregistered worker = %v, want ErrUnknownWorker", err)
	}
	if s := co.Stats(); s.UnknownWorkerCalls != 3 {
		t.Errorf("UnknownWorkerCalls = %d, want 3", s.UnknownWorkerCalls)
	}

	ts := mountCoordinator(t, co)
	resp, err := http.Post(ts.URL+"/v1/cluster/lease", "application/json",
		strings.NewReader(`{"worker":"ghost","max":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("HTTP status for unknown worker = %d, want 409", resp.StatusCode)
	}

	// After registering, the same worker leases normally.
	if err := co.Register("ghost"); err != nil {
		t.Fatal(err)
	}
	if got, err := co.Lease("ghost", 1); err != nil || len(got) != 1 {
		t.Fatalf("post-registration lease = (%v, %v), want the item", got, err)
	}
}

// TestWorkerPostRetriesTransient: the worker's post absorbs transient
// 5xx responses with backoff and gives up immediately on a permanent
// 4xx.
func TestWorkerPostRetriesTransient(t *testing.T) {
	co := NewCoordinator(Config{})
	mux := http.NewServeMux()
	mux.Handle("/v1/cluster/", http.StripPrefix("/v1/cluster", co.Handler()))
	var calls, failing atomic.Int64
	failing.Store(2)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if failing.Add(-1) >= 0 {
			http.Error(w, "injected overload", http.StatusServiceUnavailable)
			return
		}
		mux.ServeHTTP(w, r)
	}))
	defer ts.Close()

	w := &Worker{Name: "w1", Coordinator: ts.URL,
		RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond}
	var resp registerResponse
	if err := w.post(context.Background(), "/register", registerRequest{Worker: "w1"}, &resp); err != nil {
		t.Fatalf("post did not survive two 503s: %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 2 failures + 1 success", calls.Load())
	}

	// A malformed request draws a 400; post must not burn retries on it.
	failing.Store(0)
	before := calls.Load()
	err := w.post(context.Background(), "/lease", json.RawMessage(`"not an object"`), nil)
	var se *statusError
	if !errors.As(err, &se) || se.status != http.StatusBadRequest {
		t.Fatalf("malformed request error = %v, want a 400 statusError", err)
	}
	if calls.Load() != before+1 {
		t.Fatalf("permanent 400 was retried: %d extra calls", calls.Load()-before)
	}
}

// TestWorkerSurvivesCoordinatorRestart: the coordinator is replaced by a
// fresh instance with no memory of the worker (membership, leases and
// queue all gone). The worker's next call draws a 409, re-registers
// transparently, and drains the new coordinator's queue — no restart of
// the worker fleet needed.
func TestWorkerSurvivesCoordinatorRestart(t *testing.T) {
	var current atomic.Pointer[Coordinator]
	current.Store(NewCoordinator(Config{LeaseTTL: 2 * time.Second}))
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.StripPrefix("/v1/cluster", current.Load().Handler()).ServeHTTP(w, r)
	}))
	defer ts.Close()

	w := newTestWorker("survivor", ts.URL, 2)
	w.RetryBase = 5 * time.Millisecond
	w.RetryMax = 50 * time.Millisecond
	stop := startWorker(t, w)
	defer stop()

	waitRegistered := func(co *Coordinator) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			for _, ws := range co.Stats().Workers {
				if ws.Name == "survivor" {
					return
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatal("worker never registered")
	}
	waitRegistered(current.Load())

	// Restart: a brand-new coordinator takes over the same endpoint.
	co2 := NewCoordinator(Config{LeaseTTL: 2 * time.Second})
	current.Store(co2)

	cfg := config.Default()
	cfg.Cores = 2
	job := engine.Job{
		Kind:   workload.Queue,
		Params: workload.Params{Threads: 2, InitOps: 64, SimOps: 16, Seed: 3},
		Scheme: core.Proteus,
		Config: cfg,
	}
	payload, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	id := co2.Enqueue(KindSim, payload, job.Fingerprint())

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := co2.Wait(ctx, id)
	if err != nil {
		t.Fatalf("item never completed after coordinator restart: %v", err)
	}
	var out engine.Result
	if err := json.Unmarshal(res, &out); err != nil || out.Report == nil {
		t.Fatalf("result after restart = %s (%v), want a sim outcome", res, err)
	}
	s := co2.Stats()
	if s.Completed != 1 {
		t.Errorf("new coordinator completed %d items, want 1", s.Completed)
	}
	if s.UnknownWorkerCalls == 0 {
		t.Errorf("restart never rejected the stale worker; re-registration path untested")
	}
}

// TestSilentWorkerIsEvicted: a worker that stops heartbeating is dropped
// from the ring after WorkerTTL of silence and must re-register before it
// can lease again.
func TestSilentWorkerIsEvicted(t *testing.T) {
	now := time.Unix(4000, 0)
	clock := &now
	co := NewCoordinator(Config{
		LeaseTTL:  9 * time.Second,
		WorkerTTL: 9 * time.Second,
		now:       func() time.Time { return *clock },
	})
	if err := co.Register("w1"); err != nil {
		t.Fatal(err)
	}

	now = now.Add(9*time.Second + time.Millisecond)
	s := co.Stats()
	if s.WorkersEvicted != 1 || len(s.Workers) != 0 {
		t.Fatalf("stats after silence = %+v, want w1 evicted", s)
	}
	if _, err := co.Lease("w1", 1); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("evicted worker leased without re-registering: %v", err)
	}
	if err := co.Register("w1"); err != nil {
		t.Fatal(err)
	}
	if _, err := co.Lease("w1", 1); err != nil {
		t.Fatalf("lease after re-registration: %v", err)
	}
}

// TestRequeueBackoffJitterDeterministic: the jitter is a pure function
// of (item, attempt, seed) — identical across coordinators with the
// same seed, bounded below by 1−jitter, and removable.
func TestRequeueBackoffJitterDeterministic(t *testing.T) {
	backoffAfterOneFailure := func(seed int64, jitter float64) time.Duration {
		now := time.Unix(5000, 0)
		co := NewCoordinator(Config{
			LeaseTTL: time.Hour, WorkerTTL: 24 * time.Hour,
			RetryBudget: 5, BackoffBase: time.Second, BackoffMax: time.Minute,
			BackoffJitter: jitter, Seed: seed,
			now: func() time.Time { return now },
		})
		if err := co.Register("w1"); err != nil {
			t.Fatal(err)
		}
		id := co.Enqueue(KindSim, json.RawMessage(`{}`), "aa")
		if got, err := co.Lease("w1", 1); err != nil || len(got) != 1 {
			t.Fatalf("lease = (%v, %v)", got, err)
		}
		if _, err := co.Complete("w1", id, nil, nil, "boom"); err != nil {
			t.Fatal(err)
		}
		co.mu.Lock()
		defer co.mu.Unlock()
		return co.items[id].notBefore.Sub(now)
	}

	a := backoffAfterOneFailure(1, 0)
	if b := backoffAfterOneFailure(1, 0); a != b {
		t.Fatalf("same seed produced different backoffs: %v vs %v", a, b)
	}
	if a < 800*time.Millisecond || a > time.Second {
		t.Fatalf("jittered backoff %v outside [0.8s, 1s] (base 1s, jitter 0.2)", a)
	}
	if off := backoffAfterOneFailure(1, -1); off != time.Second {
		t.Fatalf("disabled jitter still perturbed the backoff: %v", off)
	}
}
