package resultstore

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/workload"
)

func testJob() engine.Job {
	cfg := config.Default()
	cfg.Cores = 1
	return engine.Job{
		Kind:   workload.Queue,
		Params: workload.Params{Threads: 1, InitOps: 32, SimOps: 8, Seed: 1},
		Scheme: core.PMEMNoLog,
		Config: cfg,
	}
}

func testResult() *engine.Result {
	rep := &stats.Report{Label: "test", Cycles: 12345, CoreStat: make([]stats.Core, 1)}
	rep.CoreStat[0].Retired = 678
	return &engine.Result{Report: rep, EmittedLogFlushes: 9}
}

func TestRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, res := testJob(), testResult()
	key := j.Fingerprint()

	if got, err := s.Load(key); err != nil || got != nil {
		t.Fatalf("Load before Store = (%v, %v), want miss", got, err)
	}
	if err := s.Store(key, j, res); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load(key)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("Load after Store missed")
	}
	// The loaded result must serialize byte-identically to the live one:
	// that equality is what lets the serving layer answer from disk
	// without observable difference.
	a, _ := json.Marshal(res)
	b, _ := json.Marshal(got)
	if string(a) != string(b) {
		t.Fatalf("round trip changed the result:\nlive: %s\ndisk: %s", a, b)
	}
	c := s.Counters()
	if c.Hits != 1 || c.Misses != 1 || c.Writes != 1 {
		t.Fatalf("counters %+v, want 1 hit / 1 miss / 1 write", c)
	}
}

func TestSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	j, res := testJob(), testResult()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Store(j.Fingerprint(), j, res); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Load(j.Fingerprint())
	if err != nil || got == nil {
		t.Fatalf("entry did not survive reopen: (%v, %v)", got, err)
	}
	if got.Report.Cycles != res.Report.Cycles {
		t.Fatalf("cycles %d, want %d", got.Report.Cycles, res.Report.Cycles)
	}
	if n, err := s2.Len(); err != nil || n != 1 {
		t.Fatalf("Len = (%d, %v), want 1", n, err)
	}
}

// corruptLoad stores one entry, mangles the on-disk file with mangle,
// and asserts Load detects the damage: typed ErrCorruptEntry, no result,
// the file quarantined out of the live namespace, and the corruption
// counters advanced.
func corruptLoad(t *testing.T, mangle func(t *testing.T, path string)) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j := testJob()
	key := j.Fingerprint()
	if err := s.Store(key, j, testResult()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key[:2], key+".json")
	mangle(t, path)

	got, err := s.Load(key)
	if got != nil {
		t.Fatalf("corrupt entry served a result: %+v", got)
	}
	if !errors.Is(err, ErrCorruptEntry) {
		t.Fatalf("Load = %v, want ErrCorruptEntry", err)
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Fatal("corrupt entry still at its live name")
	}
	qpath := filepath.Join(dir, quarantineDir, key+".json")
	if _, serr := os.Stat(qpath); serr != nil {
		t.Fatalf("corrupt entry not quarantined: %v", serr)
	}
	c := s.Counters()
	if c.Corrupt != 1 || c.Quarantined != 1 || c.Misses != 1 {
		t.Fatalf("counters %+v, want 1 corrupt / 1 quarantined / 1 miss", c)
	}
	// The quarantined file must not count as an entry, and the store must
	// accept a clean rewrite of the same key.
	if n, lerr := s.Len(); lerr != nil || n != 0 {
		t.Fatalf("Len = (%d, %v) after quarantine, want 0", n, lerr)
	}
	if err := s.Store(key, j, testResult()); err != nil {
		t.Fatalf("re-store after quarantine: %v", err)
	}
	if got, err := s.Load(key); err != nil || got == nil {
		t.Fatalf("healed entry = (%v, %v), want a hit", got, err)
	}
}

func TestTruncatedEntryIsQuarantined(t *testing.T) {
	corruptLoad(t, func(t *testing.T, path string) {
		// Truncate the entry mid-document, as an interrupted non-atomic
		// writer (or a torn publish) would have.
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSingleBitFlipIsQuarantined(t *testing.T) {
	corruptLoad(t, func(t *testing.T, path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Flip one bit inside the result payload: the JSON often still
		// parses, so only the digest can catch it.
		i := bytes.Index(data, []byte(`"Cycles"`))
		if i < 0 {
			t.Fatal("no cycles field to corrupt")
		}
		data[i+10] ^= 0x01
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

func TestEmptyEntryIsQuarantined(t *testing.T) {
	corruptLoad(t, func(t *testing.T, path string) {
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

func TestForeignSchemaIsQuarantined(t *testing.T) {
	corruptLoad(t, func(t *testing.T, path string) {
		if err := os.WriteFile(path, []byte(`{"schema":1,"key":"x"}`), 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

// TestScrubQuarantinesCorruptEntries: an offline pass over a store with
// a mix of healthy, corrupt and leftover-temp files repairs it in place.
func TestScrubQuarantinesCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Three healthy entries with distinct keys.
	var keys []string
	for i := 0; i < 3; i++ {
		j := testJob()
		j.Params.Seed = int64(100 + i)
		if err := s.Store(j.Fingerprint(), j, testResult()); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, j.Fingerprint())
	}
	// Corrupt one of them and plant a stale temp file.
	victim := keys[1]
	vpath := filepath.Join(dir, victim[:2], victim+".json")
	if err := os.WriteFile(vpath, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, victim[:2], victim+".json.tmp-12345")
	if err := os.WriteFile(tmp, []byte("half a doc"), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 3 || rep.Healthy != 2 || rep.Corrupt != 1 || rep.TempsRemoved != 1 {
		t.Fatalf("scrub report %+v, want 3 scanned / 2 healthy / 1 corrupt / 1 temp removed", rep)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != victim {
		t.Fatalf("quarantined %v, want [%s]", rep.Quarantined, victim)
	}
	if n, err := s.Quarantined(); err != nil || n != 1 {
		t.Fatalf("Quarantined() = (%d, %v), want 1", n, err)
	}
	// The survivors still load; the victim is an honest miss.
	for _, k := range []string{keys[0], keys[2]} {
		if got, err := s.Load(k); err != nil || got == nil {
			t.Fatalf("healthy entry %s after scrub = (%v, %v)", k, got, err)
		}
	}
	if got, err := s.Load(victim); err != nil || got != nil {
		t.Fatalf("scrubbed entry = (%v, %v), want a clean miss", got, err)
	}
	// A second scrub finds nothing left to do.
	rep, err = s.Scrub()
	if err != nil || rep.Corrupt != 0 || rep.Healthy != 2 || rep.TempsRemoved != 0 {
		t.Fatalf("second scrub = (%+v, %v), want all healthy", rep, err)
	}
}

// failRenameFS simulates a process crash between the temp-file fsync and
// the publishing rename: the rename into a live entry name never
// happens. The store must keep serving whatever was at the name before.
type failRenameFS struct {
	FS
}

func (f failRenameFS) Rename(oldpath, newpath string) error {
	if filepath.Ext(newpath) == ".json" && !strings.Contains(newpath, ".tmp-") {
		return errors.New("injected crash before rename")
	}
	return f.FS.Rename(oldpath, newpath)
}

func TestCrashBeforeRenameKeepsOldEntry(t *testing.T) {
	dir := t.TempDir()
	j := testJob()
	key := j.Fingerprint()

	healthy, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := healthy.Store(key, j, testResult()); err != nil {
		t.Fatal(err)
	}

	crashy, err := OpenFS(dir, failRenameFS{OSFS()})
	if err != nil {
		t.Fatal(err)
	}
	newer := testResult()
	newer.Report.Cycles = 999
	if err := crashy.Store(key, j, newer); err == nil {
		t.Fatal("Store succeeded though the publish rename crashed")
	}

	// The old entry is intact and verified; no temp debris shadows it.
	got, err := healthy.Load(key)
	if err != nil || got == nil {
		t.Fatalf("entry after crashed rewrite = (%v, %v), want the old result", got, err)
	}
	if got.Report.Cycles != testResult().Report.Cycles {
		t.Fatalf("cycles %d, want the pre-crash value %d", got.Report.Cycles, testResult().Report.Cycles)
	}
	if n, err := healthy.Len(); err != nil || n != 1 {
		t.Fatalf("Len = (%d, %v), want exactly the old entry", n, err)
	}
}

func TestRejectsBadKeysAndEmptyResults(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j := testJob()
	if err := s.Store("../../etc/passwd", j, testResult()); err == nil {
		t.Fatal("path-traversal key accepted")
	}
	if err := s.Store(j.Fingerprint(), j, &engine.Result{}); err == nil {
		t.Fatal("empty result accepted")
	}
	if got, err := s.Load("ZZ"); err != nil || got != nil {
		t.Fatal("malformed key did not miss cleanly")
	}
}

func TestAtomicWriteLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "metrics.json")
	if err := WriteFileAtomic(path, []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("world"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "world" {
		t.Fatalf("read back (%q, %v)", data, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
	if len(ents) != 1 {
		t.Fatalf("directory has %d entries, want 1", len(ents))
	}
}

// TestAtomicWriteCreatesMissingDir: a command's -out or -csv may name a
// directory that does not exist yet (CI's crash-campaign smoke writes
// campaign/report.json into an empty checkout); the write creates it.
func TestAtomicWriteCreatesMissingDir(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign", "nested", "report.json")
	if err := WriteFileAtomic(path, []byte("report"), 0o644); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "report" {
		t.Fatalf("read back (%q, %v)", data, err)
	}
}

// TestAtomicWriteSyncsParentDir pins the crash contract of the publish
// step: the parent directory must be fsynced after the rename (not
// before), otherwise a host crash can drop the freshly renamed entry and
// the published result vanishes even though its blocks were synced. The
// test also checks a directory-sync failure is reported to the caller
// rather than swallowed.
func TestAtomicWriteSyncsParentDir(t *testing.T) {
	orig := syncDir
	defer func() { syncDir = orig }()

	dir := t.TempDir()
	path := filepath.Join(dir, "report.json")

	var synced []string
	syncDir = func(d string) error {
		// The rename must already be visible when the directory is synced;
		// syncing first would make the fsync cover the pre-rename state.
		if _, err := os.Stat(path); err != nil {
			t.Errorf("dir fsync ran before rename was visible: %v", err)
		}
		synced = append(synced, filepath.Clean(d))
		return orig(d)
	}
	if err := WriteFileAtomic(path, []byte("published"), 0o644); err != nil {
		t.Fatal(err)
	}
	if len(synced) != 1 || synced[0] != filepath.Clean(dir) {
		t.Fatalf("directory fsyncs = %q, want exactly one of %q", synced, dir)
	}

	syncDir = func(string) error { return fmt.Errorf("injected dir fsync failure") }
	if err := WriteFileAtomic(path, []byte("later"), 0o644); err == nil {
		t.Fatal("WriteFileAtomic swallowed the directory fsync error")
	}
}

// TestConcurrentMultiProcessWriters models the cluster deployment: several
// store handles on one shared directory (as separate worker processes
// would have) racing to publish the same fingerprint while readers load it
// concurrently. The atomic write-then-rename contract means a reader sees
// either a miss or one complete, valid entry — never a torn document — and
// the final state is a single winner.
func TestConcurrentMultiProcessWriters(t *testing.T) {
	dir := t.TempDir()
	j := testJob()
	key := j.Fingerprint()

	const writers = 4
	stores := make([]*Store, writers)
	for i := range stores {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = s
	}

	// Each writer publishes its own distinguishable (but valid) result, so
	// a torn interleaving of two documents would fail to parse or carry an
	// impossible cycle count.
	results := make([]*engine.Result, writers)
	for i := range results {
		results[i] = testResult()
		results[i].Report.Cycles = uint64(10000 + i)
	}
	valid := make(map[uint64]bool, writers)
	for _, r := range results {
		valid[r.Report.Cycles] = true
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, writers*20)
	for i := 0; i < writers; i++ {
		// Writer i hammers the shared key.
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			for n := 0; n < 10; n++ {
				if err := stores[i].Store(key, j, results[i]); err != nil {
					errs <- err
					return
				}
			}
		}(i)
		// Reader i loads through a different handle the whole time.
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			reader := stores[(i+1)%writers]
			for n := 0; n < 50; n++ {
				got, err := reader.Load(key)
				if err != nil {
					errs <- err
					return
				}
				if got != nil && !valid[got.Report.Cycles] {
					errs <- fmt.Errorf("torn read: cycles %d is no writer's value", got.Report.Cycles)
					return
				}
			}
		}(i)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// One winner: a fresh handle sees exactly one complete entry whose
	// payload is one of the racers', and nobody counted an I/O error or a
	// corrupt-entry eviction.
	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fresh.Load(key)
	if err != nil || got == nil {
		t.Fatalf("final Load = (%v, %v), want the winning entry", got, err)
	}
	if !valid[got.Report.Cycles] {
		t.Fatalf("final entry cycles %d is no writer's value", got.Report.Cycles)
	}
	if n, err := fresh.Len(); err != nil || n != 1 {
		t.Fatalf("Len = (%d, %v), want exactly 1 entry", n, err)
	}
	for i, s := range stores {
		if c := s.Counters(); c.Errors != 0 {
			t.Errorf("store %d counted %d errors under concurrent writers", i, c.Errors)
		}
	}
}

// TestEngineHealsCorruptEntry is the store-miss-on-corruption contract
// end to end: a corrupt entry makes the engine re-simulate (counted as a
// store error, not a hit), and the successful run re-publishes a clean,
// verified entry — the store heals through its own miss path.
func TestEngineHealsCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	j := testJob()
	key := j.Fingerprint()

	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e1 := engine.New(engine.Config{Workers: 1, Store: s1})
	live, err := e1.Run(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt the published entry in place.
	path := filepath.Join(dir, key[:2], key+".json")
	if err := os.WriteFile(path, []byte(`{"schema":2,"key":"`+key+`"}`), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e2 := engine.New(engine.Config{Workers: 1, Store: s2})
	healed, err := e2.Run(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if c := e2.Counters(); c.Simulated != 1 || c.StoreHits != 0 || c.StoreErrors != 1 {
		t.Fatalf("second engine counters %+v, want 1 simulated / 0 store hits / 1 store error", c)
	}
	a, _ := json.Marshal(live)
	b, _ := json.Marshal(healed)
	if string(a) != string(b) {
		t.Fatal("re-simulated result differs from the original run")
	}

	// The re-publish healed the entry: a third engine gets a store hit.
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e3 := engine.New(engine.Config{Workers: 1, Store: s3})
	if _, err := e3.Run(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	if c := e3.Counters(); c.StoreHits != 1 || c.Simulated != 0 {
		t.Fatalf("third engine counters %+v, want a clean store hit", c)
	}
	if n, err := s3.Quarantined(); err != nil || n != 1 {
		t.Fatalf("Quarantined() = (%d, %v), want the corpse preserved", n, err)
	}
}

// TestEngineAnswersFromStore is the cross-process warm-cache contract:
// a second engine sharing the store directory answers the same tuple
// without simulating, and the result is byte-identical to the live run.
func TestEngineAnswersFromStore(t *testing.T) {
	dir := t.TempDir()
	j := testJob()

	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e1 := engine.New(engine.Config{Workers: 1, Store: s1})
	live, err := e1.Run(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if c := e1.Counters(); c.Simulated != 1 || c.StoreHits != 0 {
		t.Fatalf("first engine counters %+v", c)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e2 := engine.New(engine.Config{Workers: 1, Store: s2})
	cached, err := e2.Run(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if c := e2.Counters(); c.Simulated != 0 || c.StoreHits != 1 {
		t.Fatalf("second engine counters %+v, want 0 simulated / 1 store hit", c)
	}
	a, _ := json.Marshal(live)
	b, _ := json.Marshal(cached)
	if string(a) != string(b) {
		t.Fatal("store-answered result differs from the live run")
	}
}
