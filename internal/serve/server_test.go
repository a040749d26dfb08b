package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/resultstore"
)

// tinySpec names a sub-second simulation tuple.
func tinySpec(seed int64) Spec {
	return Spec{Type: "sim", Bench: "QE", Scheme: "PMEM+nolog", Mem: "nvm-fast",
		Threads: 1, SimOps: 8, InitOps: 32, Seed: seed}
}

// slowSpec names a tuple that simulates for many seconds — used to hold
// a worker busy while tests observe queue and cancellation behaviour.
func slowSpec() Spec {
	return Spec{Type: "sim", Bench: "QE", Scheme: "PMEM", Mem: "nvm-fast",
		Threads: 1, SimOps: 30000, InitOps: 32, Seed: 7}
}

func newTestServer(t *testing.T, conf Config) (*Server, *httptest.Server) {
	t.Helper()
	if conf.Engine == nil {
		conf.Engine = engine.New(engine.Config{Workers: 2})
	}
	s, err := New(conf)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, spec Spec, query string) (int, statusResponse) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/jobs"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statusResponse
	data, _ := io.ReadAll(resp.Body)
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("bad response %q: %v", data, err)
	}
	return resp.StatusCode, st
}

func poll(t *testing.T, ts *httptest.Server, id string, want ...State) statusResponse {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st statusResponse
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range want {
			if st.State == w {
				return st
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %v", id, want)
	return statusResponse{}
}

// TestDeterminismAcrossTransports is the acceptance contract: a job
// submitted over HTTP returns a report byte-identical to the same tuple
// executed directly on an engine (the CLI path), and byte-identical
// whether it was answered live, from the in-memory memo table, or from
// the on-disk result store.
func TestDeterminismAcrossTransports(t *testing.T) {
	spec := tinySpec(1)

	// Reference: the CLI path — compile the same spec and run it on a
	// private engine, then marshal the canonical payload.
	j, err := compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := engine.New(engine.Config{Workers: 1}).Run(context.Background(), j.simJob)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(SimResult{Job: j.simJob.String(), Fingerprint: j.simJob.Fingerprint(), Result: *ref})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	store1, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng1 := engine.New(engine.Config{Workers: 1, Store: store1})
	_, ts1 := newTestServer(t, Config{Engine: eng1, Store: store1})

	// Live run over HTTP.
	code, st := submit(t, ts1, spec, "?wait=1")
	if code != http.StatusOK || st.State != StateDone {
		t.Fatalf("live: code=%d state=%s err=%s", code, st.State, st.Error)
	}
	live := st.Result

	// Memo-table answer: same server, same spec.
	_, st = submit(t, ts1, spec, "?wait=1")
	memo := st.Result

	// On-disk answer: a fresh process (new engine, new server) sharing
	// only the store directory.
	store2, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng2 := engine.New(engine.Config{Workers: 1, Store: store2})
	_, ts2 := newTestServer(t, Config{Engine: eng2, Store: store2})
	_, st = submit(t, ts2, spec, "?wait=1")
	disk := st.Result

	for name, got := range map[string]json.RawMessage{"live": live, "memo": memo, "disk": disk} {
		if !bytes.Equal(got, want) {
			t.Errorf("%s result differs from the direct engine run:\n got: %s\nwant: %s", name, got, want)
		}
	}
	if c := eng2.Counters(); c.Simulated != 0 || c.StoreHits != 1 {
		t.Fatalf("disk-path engine counters %+v, want 0 simulated / 1 store hit", c)
	}
}

// TestQueueBackpressure fills the admission queue and asserts overload is
// refused with 429 + Retry-After rather than queued without bound. The
// server is deliberately not started, so nothing drains the queue.
func TestQueueBackpressure(t *testing.T) {
	s, err := New(Config{Engine: engine.New(engine.Config{Workers: 1}), QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		code, _ := submit(t, ts, tinySpec(int64(100+i)), "")
		if code != http.StatusAccepted {
			t.Fatalf("submission %d: code %d, want 202", i, code)
		}
	}
	body, _ := json.Marshal(tinySpec(999))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: code %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	// An identical resubmission of a queued spec still merges — the
	// singleflight path does not consume a queue slot.
	code, st := submit(t, ts, tinySpec(100), "")
	if code != http.StatusOK || !st.Deduped {
		t.Fatalf("identical spec on a full queue: code=%d deduped=%v, want 200 merged", code, st.Deduped)
	}
}

// TestSingleflightAcrossRequests: submissions identical to an in-flight
// job merge into its task instead of queueing a duplicate.
func TestSingleflightAcrossRequests(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 1})
	s, ts := newTestServer(t, Config{Engine: eng, Workers: 1})

	_, first := submit(t, ts, slowSpec(), "")
	poll(t, ts, first.ID, StateRunning)
	for i := 0; i < 3; i++ {
		code, st := submit(t, ts, slowSpec(), "")
		if code != http.StatusOK || !st.Deduped || st.ID != first.ID {
			t.Fatalf("resubmission %d: code=%d deduped=%v id=%s, want merge into %s",
				i, code, st.Deduped, st.ID, first.ID)
		}
	}
	st := poll(t, ts, first.ID, StateRunning)
	if st.Merged != 3 {
		t.Fatalf("task absorbed %d submissions, want 3", st.Merged)
	}
	s.Cancel(first.ID)
	poll(t, ts, first.ID, StateCancelled)
}

// TestClientDisconnectCancelsEngine: a wait-mode client going away must
// cancel the engine context of its job.
func TestClientDisconnectCancelsEngine(t *testing.T) {
	started := make(chan struct{}, 1)
	finished := make(chan error, 1)
	eng := engine.New(engine.Config{Workers: 1, Progress: func(ev engine.Event) {
		switch ev.Phase {
		case engine.JobStart:
			started <- struct{}{}
		case engine.JobDone:
			finished <- ev.Err
		}
	}})
	_, ts := newTestServer(t, Config{Engine: eng, Workers: 1})

	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(slowSpec())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/jobs?wait=1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	select {
	case <-started:
	case <-time.After(time.Minute):
		t.Fatal("job never started")
	}
	cancel() // client disconnects mid-run
	<-errc

	select {
	case err := <-finished:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("engine job finished with %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("engine context was not cancelled by the client disconnect")
	}
	// The engine must stay clean: the tuple was not memoized as a
	// failure and can be recomputed by a later request.
	if c := eng.Counters(); c.Failed != 0 {
		t.Fatalf("cancelled job recorded as failure: %+v", c)
	}
}

// TestGracefulDrain: Drain finishes queued work, refuses new
// submissions, and flips /healthz to 503.
func TestGracefulDrain(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 2})
	s, ts := newTestServer(t, Config{Engine: eng, Workers: 1})

	code, st := submit(t, ts, tinySpec(3), "")
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}

	drainErr := make(chan error, 1)
	go func() { drainErr <- s.Drain(context.Background()) }()

	// While draining: health reports 503 and submissions are refused.
	deadline := time.Now().Add(10 * time.Second)
	for !s.Draining() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", resp.StatusCode)
	}
	code, _ = submit(t, ts, tinySpec(4), "")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submission while draining: code %d, want 503", code)
	}

	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The queued job was finished, not dropped.
	fin := poll(t, ts, st.ID, StateDone)
	if fin.Result == nil {
		t.Fatal("drained job has no result")
	}
}

// TestDrainDeadlineCancelsRunningJobs: a drain whose context expires
// cancels in-flight work instead of hanging.
func TestDrainDeadlineCancelsRunningJobs(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 1})
	s, ts := newTestServer(t, Config{Engine: eng, Workers: 1})

	_, st := submit(t, ts, slowSpec(), "")
	poll(t, ts, st.ID, StateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.Drain(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain returned %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("forced drain took %v", elapsed)
	}
	fin := poll(t, ts, st.ID, StateCancelled)
	if fin.State != StateCancelled {
		t.Fatalf("running job state %s after forced drain", fin.State)
	}
}

// TestWarmCacheFigureSuite is the warm-cache acceptance criterion: a
// second submission of an identical Quick-scale figure suite is answered
// from the result store without re-simulation.
func TestWarmCacheFigureSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a Quick-scale figure suite twice")
	}
	dir := t.TempDir()
	spec := Spec{Type: "figure", Figure: "6", Scale: "quick"}

	run := func() (json.RawMessage, engine.Counters, time.Duration) {
		store, err := resultstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		eng := engine.New(engine.Config{Store: store})
		_, ts := newTestServer(t, Config{Engine: eng, Store: store})
		start := time.Now()
		code, st := submit(t, ts, spec, "?wait=1")
		if code != http.StatusOK || st.State != StateDone {
			t.Fatalf("figure job: code=%d state=%s err=%s", code, st.State, st.Error)
		}
		return st.Result, eng.Counters(), time.Since(start)
	}

	cold, c1, coldWall := run()
	if c1.Simulated == 0 {
		t.Fatalf("cold run simulated nothing: %+v", c1)
	}
	warm, c2, warmWall := run()
	if c2.Simulated != 0 {
		t.Fatalf("warm run re-simulated %d tuples: %+v", c2.Simulated, c2)
	}
	if c2.StoreHits == 0 {
		t.Fatalf("warm run recorded no store hits: %+v", c2)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("warm figure result differs from cold")
	}
	if warmWall > coldWall/2 {
		t.Fatalf("warm run (%v) is not well under the cold run (%v)", warmWall, coldWall)
	}
}

// TestMetricsEndpoint asserts the Prometheus exposition carries every
// layer's series.
func TestMetricsEndpoint(t *testing.T) {
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Workers: 1, Store: store})
	_, ts := newTestServer(t, Config{Engine: eng, Store: store, QueueDepth: 7})

	if code, st := submit(t, ts, tinySpec(2), "?wait=1"); code != http.StatusOK || st.State != StateDone {
		t.Fatalf("warmup job failed: %d %+v", code, st)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	body := string(data)
	for _, want := range []string{
		"proteus_serve_jobs_done_total 1",
		"proteus_serve_queue_capacity 7",
		"proteus_serve_request_duration_seconds_bucket",
		"proteus_serve_job_duration_seconds_count",
		"proteus_engine_simulated_total 1",
		"proteus_store_writes_total 1",
		"proteus_store_cache_hit_ratio",
		"proteus_serve_draining 0",
		// The per-kind queue depth appears once a kind has been queued,
		// and drops back to zero when the job leaves the queue.
		"# TYPE proteus_serve_queue_depth_by_type gauge",
		`proteus_serve_queue_depth_by_type{type="sim"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
}

// TestSpecValidation: malformed specs are 400s with a reason, never 500s.
func TestSpecValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []Spec{
		{Type: "warp-drive"},
		{Type: "sim", Bench: "nope"},
		{Type: "sim", Scheme: "nope"},
		{Type: "sim", Mem: "nope"},
		{Type: "figure", Figure: "13"},
		{Type: "campaign", Faults: "nope"},
		{Type: "sim", TimeoutMS: -5},
	}
	for i, spec := range cases {
		body, _ := json.Marshal(spec)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || e["error"] == "" {
			t.Errorf("case %d (%+v): code=%d err=%q, want 400 with reason", i, spec, resp.StatusCode, e["error"])
		}
	}
}

// TestOversizedSpecRefusedAtAdmission: a sim or campaign spec whose
// machine, workload or crash sweep is too large to run is a 400 at
// admission, so it is never queued. The server's workers are not started: an accepted spec would
// wait in the queue instead of allocating.
func TestOversizedSpecRefusedAtAdmission(t *testing.T) {
	s, err := New(Config{Engine: engine.New(engine.Config{Workers: 1})})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	for _, spec := range []string{
		`{"type":"sim","lpq":2147483647}`,
		`{"type":"sim","logq":2147483647}`,
		`{"type":"sim","initops":1000000000}`,
		`{"type":"sim","simops":1000000000}`,
		`{"type":"campaign","initops":1000000000}`,
		`{"type":"campaign","simops":1000000000}`,
		`{"type":"campaign","sweep":1000000000}`,
		`{"type":"campaign","threads":17}`,
		`{"type":"figure","threads":17}`,
		`{"type":"figure","threads":1000000}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || e["error"] == "" {
			t.Errorf("%s: code=%d err=%q, want 400 with reason", spec, resp.StatusCode, e["error"])
		}
	}
}

// TestListAndCancel covers the job listing and explicit cancellation of
// a queued task.
func TestListAndCancel(t *testing.T) {
	s, ts := newTestServer(t, Config{Engine: engine.New(engine.Config{Workers: 1}), Workers: 1})

	_, running := submit(t, ts, slowSpec(), "")
	poll(t, ts, running.ID, StateRunning)
	_, queued := submit(t, ts, tinySpec(8), "")

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []statusResponse
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list) != 2 {
		t.Fatalf("listed %d jobs, want 2", len(list))
	}

	// Cancel the queued job, then the running one; both settle.
	for _, id := range []string{queued.ID, running.ID} {
		req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cancel %s: code %d", id, resp.StatusCode)
		}
		poll(t, ts, id, StateCancelled)
	}
	_ = s
	if code, _ := fetchStatusCode(ts.URL + "/v1/jobs/job-99"); code != http.StatusNotFound {
		t.Fatalf("unknown job: code %d, want 404", code)
	}
}

func fetchStatusCode(url string) (int, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}

// TestClusterSimThroughServe is the end-to-end coordinator path: a server
// started with a cluster coordinator scatters a sim job to a pull-based
// worker over the mounted /v1/cluster/ protocol, and the HTTP result is
// byte-identical to a local in-process execution of the same spec.
func TestClusterSimThroughServe(t *testing.T) {
	co := cluster.NewCoordinator(cluster.Config{LeaseTTL: 5 * time.Second})
	_, ts := newTestServer(t, Config{Cluster: co})

	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	w := &cluster.Worker{
		Name:        "w1",
		Coordinator: ts.URL,
		Engine:      engine.New(engine.Config{Workers: 1}),
		Poll:        10 * time.Millisecond,
	}
	go func() { _ = w.Run(wctx) }()

	code, st := submit(t, ts, tinySpec(3), "?wait=1")
	if code != http.StatusOK || st.State != StateDone {
		t.Fatalf("cluster-scattered sim: %d %+v", code, st)
	}

	// Local reference: same spec, private engine, no cluster.
	j, err := compile(tinySpec(3))
	if err != nil {
		t.Fatal(err)
	}
	local, err := j.execute(context.Background(), engine.New(engine.Config{Workers: 1}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st.Result, local) {
		t.Errorf("cluster result differs from local execution:\ncluster: %s\nlocal: %s", st.Result, local)
	}

	// The coordinator section of /metrics reflects the completed item.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"proteus_cluster_completed_total 1",
		"proteus_cluster_items_done 1",
		`proteus_cluster_worker_completed{worker="w1"} 1`,
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestRetryAfterSecondsRoundsUp pins the Retry-After ceiling: flooring a
// 2.9s window advertises "2" and invites clients back 900ms early into a
// queue that is, by the server's own estimate, still full.
func TestRetryAfterSecondsRoundsUp(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "1"},
		{-time.Second, "1"},
		{300 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1001 * time.Millisecond, "2"},
		{2900 * time.Millisecond, "3"},
		{3 * time.Second, "3"},
		{59*time.Second + time.Nanosecond, "60"},
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.d); got != c.want {
			t.Errorf("retryAfterSeconds(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

// TestScrubEndpointRepairsCorruption: an entry corrupted on disk shows
// up in the scrub report, moves to quarantine, and the corruption
// counters surface in /metrics; a second scrub confirms the store is
// clean again.
func TestScrubEndpointRepairsCorruption(t *testing.T) {
	dir := t.TempDir()
	store, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Workers: 1, Store: store})
	_, ts := newTestServer(t, Config{Engine: eng, Store: store, Workers: 1})

	if code, st := submit(t, ts, tinySpec(5), "?wait=1"); code != http.StatusOK || st.State != StateDone {
		t.Fatalf("warmup job failed: %d %+v", code, st)
	}

	// Truncate the one live entry behind the store's back.
	var entry string
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".json" {
			entry = path
		}
		return nil
	})
	if err != nil || entry == "" {
		t.Fatalf("no store entry found (%v)", err)
	}
	if err := os.Truncate(entry, 10); err != nil {
		t.Fatal(err)
	}

	scrub := func() resultstore.ScrubReport {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/store/scrub", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scrub status %d", resp.StatusCode)
		}
		var rep resultstore.ScrubReport
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if rep := scrub(); rep.Scanned != 1 || rep.Corrupt != 1 || len(rep.Quarantined) != 1 {
		t.Fatalf("scrub report %+v, want 1 scanned / 1 corrupt / 1 quarantined", rep)
	}
	if rep := scrub(); rep.Scanned != 0 || rep.Corrupt != 0 {
		t.Fatalf("second scrub %+v, want a clean empty store", rep)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"proteus_store_corrupt_total 1",
		"proteus_store_quarantined_total 1",
		"proteus_engine_store_errors_total 0",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("metrics missing %q\n%s", want, data)
		}
	}

	// A fresh tuple writes a new entry that scrubs healthy. (The original
	// tuple would be answered from the engine's in-process memo without a
	// store write; cross-process healing is covered by the resultstore and
	// chaos tests.)
	if code, st := submit(t, ts, tinySpec(6), "?wait=1"); code != http.StatusOK || st.State != StateDone {
		t.Fatalf("follow-up job failed: %d %+v", code, st)
	}
	if rep := scrub(); rep.Scanned != 1 || rep.Healthy != 1 {
		t.Fatalf("post-write scrub %+v, want 1 healthy entry", rep)
	}
}
