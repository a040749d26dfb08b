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

// TestUnseenWorkerLeasesOnFirstCall: a worker the coordinator has never
// heard from (it restarted, or the worker skipped /register) gets work
// on its first lease call and is recorded like a registered one.
func TestUnseenWorkerLeasesOnFirstCall(t *testing.T) {
	co := NewCoordinator(Config{})
	id := co.Enqueue(KindSim, json.RawMessage(`{}`))
	ts := mountCoordinator(t, co)

	resp, err := http.Post(ts.URL+"/v1/cluster/lease", "application/json",
		strings.NewReader(`{"worker":"ghost","max":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lease leaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(lease.Items) != 1 || lease.Items[0].ID != id {
		t.Fatalf("first lease from an unseen worker = %d %+v, want 200 with the item", resp.StatusCode, lease)
	}
	s := co.Stats()
	if len(s.Workers) != 1 || s.Workers[0].Name != "ghost" || s.Workers[0].Leased != 1 {
		t.Fatalf("workers after the lease = %+v, want ghost holding one item", s.Workers)
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
// queue all gone). The worker keeps calling and drains the new
// coordinator's queue — no restart of the worker fleet needed.
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
	id := co2.Enqueue(KindSim, payload)

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
}

// TestSilentWorkerIsEvicted: a worker that stops heartbeating is dropped
// from the stats after three lease TTLs of silence, and its next lease
// is granted.
func TestSilentWorkerIsEvicted(t *testing.T) {
	now := time.Unix(4000, 0)
	clock := &now
	co := NewCoordinator(Config{
		LeaseTTL: 3 * time.Second,
		now:      func() time.Time { return *clock },
	})
	if err := co.Register("w1"); err != nil {
		t.Fatal(err)
	}

	now = now.Add(9*time.Second + time.Millisecond)
	s := co.Stats()
	if s.WorkersEvicted != 1 || len(s.Workers) != 0 {
		t.Fatalf("stats after silence = %+v, want w1 evicted", s)
	}
	id := co.Enqueue(KindSim, json.RawMessage(`{}`))
	if got, err := co.Lease("w1", 1); err != nil || len(got) != 1 || got[0].ID != id {
		t.Fatalf("lease after eviction = (%v, %v), want the item", got, err)
	}
}

// TestRequeueBackoffJitterDeterministic: the jitter is a pure function
// of (item, attempt) — identical across coordinators and bounded below
// by 1−jitter.
func TestRequeueBackoffJitterDeterministic(t *testing.T) {
	backoffAfterOneFailure := func() time.Duration {
		now := time.Unix(5000, 0)
		co := NewCoordinator(Config{
			LeaseTTL: time.Hour, RetryBudget: 5, BackoffBase: time.Second, BackoffMax: time.Minute,
			now: func() time.Time { return now },
		})
		if err := co.Register("w1"); err != nil {
			t.Fatal(err)
		}
		id := co.Enqueue(KindSim, json.RawMessage(`{}`))
		if got, err := co.Lease("w1", 1); err != nil || len(got) != 1 {
			t.Fatalf("lease = (%v, %v)", got, err)
		}
		if _, err := co.Complete("w1", id, nil, "boom"); err != nil {
			t.Fatal(err)
		}
		co.mu.Lock()
		defer co.mu.Unlock()
		return co.items[id].notBefore.Sub(now)
	}

	a := backoffAfterOneFailure()
	if b := backoffAfterOneFailure(); a != b {
		t.Fatalf("same inputs produced different backoffs: %v vs %v", a, b)
	}
	if a < 800*time.Millisecond || a > time.Second {
		t.Fatalf("jittered backoff %v outside [0.8s, 1s] (base 1s, jitter 0.2)", a)
	}
}
