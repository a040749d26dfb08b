package chaos

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ledger"
	"repro/internal/resultstore"
	"repro/internal/stats"
	"repro/internal/workload"
)

func testJob(seed int64) engine.Job {
	cfg := config.Default()
	cfg.Cores = 1
	return engine.Job{
		Kind:   workload.Queue,
		Params: workload.Params{Threads: 1, InitOps: 32, SimOps: 8, Seed: seed},
		Scheme: core.PMEMNoLog,
		Config: cfg,
	}
}

func testResult() *engine.Result {
	rep := &stats.Report{Label: "chaos", Cycles: 4242, CoreStat: make([]stats.Core, 1)}
	rep.CoreStat[0].Retired = 99
	return &engine.Result{Report: rep, EmittedLogFlushes: 3}
}

// TestInjectorDeterministic: the same seed yields the same decision
// stream, a different seed a different one, and counters record hits.
func TestInjectorDeterministic(t *testing.T) {
	conf := Config{Drop: 0.3, BitFlip: 0.5}
	a, b := New(7, conf), New(7, conf)
	var hitsA, hitsB int
	for i := 0; i < 1000; i++ {
		if a.Roll("x", 0.3) {
			hitsA++
		}
		if b.Roll("x", 0.3) {
			hitsB++
		}
		if a.Intn(100) != b.Intn(100) {
			t.Fatalf("draw %d diverged between equal seeds", i)
		}
	}
	if hitsA != hitsB {
		t.Fatalf("hit counts diverged: %d vs %d", hitsA, hitsB)
	}
	if hitsA == 0 || hitsA == 1000 {
		t.Fatalf("p=0.3 roll hit %d/1000 times", hitsA)
	}
	if a.Counters()["x"] != uint64(hitsA) || a.Total() != uint64(hitsA) {
		t.Fatalf("counters %v do not match %d hits", a.Counters(), hitsA)
	}
	// Disabled faults must not consume draws: a stream with an extra
	// p=0 roll interleaved stays aligned.
	c, d := New(9, conf), New(9, conf)
	for i := 0; i < 100; i++ {
		c.Roll("off", 0)
		if c.Intn(1000) != d.Intn(1000) {
			t.Fatalf("p=0 roll perturbed the stream at draw %d", i)
		}
	}
}

// TestTornWriteIsDetectedByDigest: a write that silently persists only
// a prefix publishes a truncated entry; the store's digest verification
// refuses to serve it and quarantines the corpse.
func TestTornWriteIsDetectedByDigest(t *testing.T) {
	dir := t.TempDir()
	in := New(1, Config{TornWrite: 1})
	sick, err := resultstore.OpenFS(dir, NewFS(in))
	if err != nil {
		t.Fatal(err)
	}
	j := testJob(1)
	if err := sick.Store(j.Fingerprint(), j, testResult()); err != nil {
		t.Fatalf("torn write surfaced an error; it must lie: %v", err)
	}
	if in.Counters()["fs.torn_write"] == 0 {
		t.Fatal("torn-write fault never fired")
	}
	// A healthy reader of the same directory detects the damage.
	clean, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := clean.Load(j.Fingerprint())
	if got != nil || !errors.Is(err, resultstore.ErrCorruptEntry) {
		t.Fatalf("Load of torn entry = (%v, %v), want ErrCorruptEntry", got, err)
	}
	if n, err := clean.Quarantined(); err != nil || n != 1 {
		t.Fatalf("Quarantined() = (%d, %v), want 1", n, err)
	}
}

// TestBitFlipIsDetectedByDigest: one flipped bit on the read path makes
// the entry fail verification instead of serving silently wrong data.
func TestBitFlipIsDetectedByDigest(t *testing.T) {
	dir := t.TempDir()
	clean, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j := testJob(2)
	if err := clean.Store(j.Fingerprint(), j, testResult()); err != nil {
		t.Fatal(err)
	}
	in := New(3, Config{BitFlip: 1})
	sick, err := resultstore.OpenFS(dir, NewFS(in))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sick.Load(j.Fingerprint())
	if got != nil || !errors.Is(err, resultstore.ErrCorruptEntry) {
		t.Fatalf("bit-flipped Load = (%v, %v), want ErrCorruptEntry", got, err)
	}
}

// TestCrashBeforeRenameNeverPublishes: the publish rename "crashes";
// the writer sees the failure, the old entry survives untouched, and no
// temp debris becomes visible.
func TestCrashBeforeRenameNeverPublishes(t *testing.T) {
	dir := t.TempDir()
	clean, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j := testJob(3)
	old := testResult()
	if err := clean.Store(j.Fingerprint(), j, old); err != nil {
		t.Fatal(err)
	}

	in := New(4, Config{CrashRename: 1})
	sick, err := resultstore.OpenFS(dir, NewFS(in))
	if err != nil {
		t.Fatal(err)
	}
	newer := testResult()
	newer.Report.Cycles = 1
	if err := sick.Store(j.Fingerprint(), j, newer); err == nil {
		t.Fatal("Store succeeded though the rename crashed")
	}
	got, err := clean.Load(j.Fingerprint())
	if err != nil || got == nil || got.Report.Cycles != old.Report.Cycles {
		t.Fatalf("old entry after crashed publish = (%+v, %v)", got, err)
	}
}

// dirSyncFailFS fails every directory fsync and nothing else.
type dirSyncFailFS struct{ resultstore.FS }

func (dirSyncFailFS) SyncDir(string) error { return errors.New("injected directory fsync failure") }

// TestWriteFaultsSurfaceAsStoreErrors: ENOSPC and fsync failures fail
// the Store call without leaving a live entry behind, and a Store that
// reports success leaves one. A directory fsync runs after the rename
// has published the entry, so it must not fail the Store.
func TestWriteFaultsSurfaceAsStoreErrors(t *testing.T) {
	for name, tc := range map[string]struct {
		fsys     resultstore.FS
		mustFail bool
	}{
		"enospc":        {NewFS(New(5, Config{ENOSPC: 1})), true},
		"sync_fail":     {NewFS(New(5, Config{SyncFail: 1})), true},
		"dir_sync_fail": {dirSyncFailFS{resultstore.OSFS()}, false},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			sick, err := resultstore.OpenFS(dir, tc.fsys)
			if err != nil {
				t.Fatal(err)
			}
			j := testJob(4)
			serr := sick.Store(j.Fingerprint(), j, testResult())
			if serr == nil && tc.mustFail {
				t.Fatal("Store succeeded under a write fault")
			}
			clean, err := resultstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			got, err := clean.Load(j.Fingerprint())
			if serr != nil && (got != nil || err != nil) {
				t.Fatalf("failed Store (%v) left a visible entry: (%v, %v)", serr, got, err)
			}
			if serr == nil && got == nil {
				t.Fatalf("successful Store left no entry (%v)", err)
			}
		})
	}
}

// TestFailedDirSyncLeavesNothingUnledgered: a store write whose
// directory fsync fails after the rename is live, so the ledger's
// recording hook must seal it — the audit finds no live entry the chain
// never sealed.
func TestFailedDirSyncLeavesNothingUnledgered(t *testing.T) {
	dir := t.TempDir()
	st, err := resultstore.OpenFS(dir, dirSyncFailFS{resultstore.OSFS()})
	if err != nil {
		t.Fatal(err)
	}
	lg, err := ledger.Open(ledger.DefaultPath(dir), nil)
	if err != nil {
		t.Fatal(err)
	}
	b := ledger.NewBatcher(lg, 1, time.Minute)
	j := testJob(4)
	// The Store error is not the property under test: whatever it
	// reports, the audit must find nothing live and unsealed.
	_ = ledger.NewRecordingStore(st, b).Store(j.Fingerprint(), j, testResult())
	b.Close()
	rep, err := ledger.Audit(st, lg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Unledgered) != 0 {
		t.Fatalf("audit after a failed directory fsync: %+v, want nothing unledgered", rep)
	}
}

// TestEngineSurvivesSickStore: with every disk fault firing at a high
// rate, the engine still answers every job correctly — the store
// degrades to (at worst) a pile of quarantined corpses and extra
// simulations, never to a wrong or failed result.
func TestEngineSurvivesSickStore(t *testing.T) {
	in := New(6, Config{TornWrite: 0.5, BitFlip: 0.5, ENOSPC: 0.3, SyncFail: 0.3, CrashRename: 0.3})
	sick, err := resultstore.OpenFS(t.TempDir(), NewFS(in))
	if err != nil {
		t.Fatal(err)
	}
	chaotic := engine.New(engine.Config{Workers: 2, Store: sick})
	reference := engine.New(engine.Config{Workers: 2})
	for i := int64(0); i < 4; i++ {
		j := testJob(10 + i)
		want, err := reference.Run(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		// Two passes: the second may hit, miss, or trip over a corrupt
		// entry — all must converge on the reference result.
		for pass := 0; pass < 2; pass++ {
			got, err := chaotic.Run(context.Background(), j)
			if err != nil {
				t.Fatalf("job %d pass %d failed under store chaos: %v", i, pass, err)
			}
			a, _ := json.Marshal(want)
			b, _ := json.Marshal(got)
			if string(a) != string(b) {
				t.Fatalf("job %d pass %d diverged under store chaos", i, pass)
			}
		}
	}
	if in.Total() == 0 {
		t.Fatal("no faults fired; the test exercised nothing")
	}
}

// TestRoundTripperSynthesizes5xx: the 5xx fault returns a well-formed
// 503 without touching the network.
func TestRoundTripperSynthesizes5xx(t *testing.T) {
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
	}))
	defer ts.Close()
	client := &http.Client{Transport: NewRoundTripper(New(7, Config{ServerError: 1}))}
	resp, err := client.Post(ts.URL, "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if served.Load() != 0 {
		t.Fatal("synthesized 5xx still reached the server")
	}
}

// TestRoundTripperDropIsNetError: a dropped connection surfaces as a
// net.Error, the class retry logic treats as transient.
func TestRoundTripperDropIsNetError(t *testing.T) {
	client := &http.Client{Transport: NewRoundTripper(New(8, Config{Drop: 1}))}
	_, err := client.Get("http://127.0.0.1:1/never-dialed")
	if err == nil {
		t.Fatal("dropped request succeeded")
	}
	var ne net.Error
	if !errors.As(err, &ne) {
		t.Fatalf("drop error %T is not a net.Error", err)
	}
}

// TestRoundTripperDuplicatesDelivery: the dup fault delivers the
// request twice; the caller sees one valid response.
func TestRoundTripperDuplicatesDelivery(t *testing.T) {
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		w.Write([]byte(`ok`))
	}))
	defer ts.Close()
	client := &http.Client{Transport: NewRoundTripper(New(9, Config{Dup: 1}))}
	resp, err := client.Post(ts.URL, "application/json", strings.NewReader(`{"x":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if served.Load() != 2 {
		t.Fatalf("server saw %d deliveries, want 2", served.Load())
	}
}

// TestRoundTripperDelayRespectsContext: an injected delay aborts as
// soon as the request context does.
func TestRoundTripperDelayRespectsContext(t *testing.T) {
	client := &http.Client{Transport: NewRoundTripper(New(10, Config{Delay: 1, MaxDelay: 10 * time.Second}))}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://127.0.0.1:1/never", nil)
	start := time.Now()
	_, err := client.Do(req)
	if err == nil {
		t.Fatal("delayed request to a dead address succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("delay ignored context cancellation (%v)", elapsed)
	}
}
