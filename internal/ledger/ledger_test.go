package ledger_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ledger"
	"repro/internal/resultstore"
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

func testResult(flushes uint64) *engine.Result {
	rep := &stats.Report{Label: "test", Cycles: 12345, CoreStat: make([]stats.Core, 1)}
	rep.CoreStat[0].Retired = 678
	return &engine.Result{Report: rep, EmittedLogFlushes: flushes}
}

func leafN(i int) ledger.Leaf {
	return ledger.Leaf{
		Kind:   ledger.LeafResult,
		Key:    fmt.Sprintf("key-%04d", i),
		Digest: fmt.Sprintf("digest-%04d", i),
		Scheme: "Proteus", Workload: "QE", Revision: "rev-test",
	}
}

func openAt(t *testing.T, dir string) *ledger.Ledger {
	t.Helper()
	lg, err := ledger.Open(ledger.DefaultPath(dir), nil)
	if err != nil {
		t.Fatal(err)
	}
	return lg
}

// TestProofsAllBatchSizes seals batches of 1..9 leaves — covering the
// balanced, odd-duplicated and single-leaf tree shapes — and checks
// every leaf's inclusion proof both standalone and bound to the chain.
func TestProofsAllBatchSizes(t *testing.T) {
	lg := openAt(t, t.TempDir())
	for n := 1; n <= 9; n++ {
		leaves := make([]ledger.Leaf, n)
		for i := range leaves {
			leaves[i] = leafN(n*100 + i)
		}
		rec, err := lg.Append(leaves)
		if err != nil {
			t.Fatalf("append %d leaves: %v", n, err)
		}
		proofs := ledger.ProofsFor(rec)
		if len(proofs) != n {
			t.Fatalf("ProofsFor returned %d proofs for %d leaves", len(proofs), n)
		}
		for i, p := range proofs {
			if err := p.Verify(); err != nil {
				t.Fatalf("batch %d proof %d: %v", n, i, err)
			}
			if err := lg.VerifyProof(p); err != nil {
				t.Fatalf("batch %d proof %d vs ledger: %v", n, i, err)
			}
			// A different index must not pass the ledger-bound check.
			// (Standalone Verify can accept a duplicated-last leaf under
			// its phantom twin index — same leaf, same root — which is
			// why VerifyProof also range-checks against the record.)
			bad := p
			bad.Index = (p.Index + 1) % (1 << uint(len(p.Path)))
			if n > 1 && lg.VerifyProof(bad) == nil {
				t.Fatalf("batch %d: proof verified under wrong index %d", n, bad.Index)
			}
		}
	}
}

func TestProofLookupByKeyAndKind(t *testing.T) {
	lg := openAt(t, t.TempDir())
	if _, err := lg.Append([]ledger.Leaf{
		{Kind: ledger.LeafAdmission, Key: "k1"},
		{Kind: ledger.LeafResult, Key: "k1", Digest: "d-old"},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := lg.Append([]ledger.Leaf{{Kind: ledger.LeafResult, Key: "k1", Digest: "d-new"}}); err != nil {
		t.Fatal(err)
	}
	p, err := lg.Proof("k1", ledger.LeafResult)
	if err != nil {
		t.Fatal(err)
	}
	if p.Leaf.Digest != "d-new" {
		t.Fatalf("Proof returned digest %q, want the newest result leaf", p.Leaf.Digest)
	}
	if p, err = lg.Proof("k1", ledger.LeafAdmission); err != nil || p.Leaf.Kind != ledger.LeafAdmission {
		t.Fatalf("admission proof = (%+v, %v)", p.Leaf, err)
	}
	if _, err := lg.Proof("absent", ""); !errors.Is(err, ledger.ErrNoProof) {
		t.Fatalf("absent key error = %v, want ErrNoProof", err)
	}
	if d, ok := lg.LatestResultDigest("k1"); !ok || d != "d-new" {
		t.Fatalf("LatestResultDigest = (%q, %v)", d, ok)
	}
}

func TestReopenPreservesChain(t *testing.T) {
	dir := t.TempDir()
	lg := openAt(t, dir)
	for i := 0; i < 3; i++ {
		if _, err := lg.Append([]ledger.Leaf{leafN(i), leafN(10 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	head := lg.Head()

	re := openAt(t, dir)
	if got := re.Head(); got != head {
		t.Fatalf("reopened head %+v, want %+v", got, head)
	}
	if !reflect.DeepEqual(re.Records(), lg.Records()) {
		t.Fatal("reopened records differ from the written chain")
	}
	p, err := re.Proof("key-0001", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := re.VerifyProof(p); err != nil {
		t.Fatal(err)
	}
	// The reopened ledger keeps appending on the same chain.
	rec, err := re.Append([]ledger.Leaf{leafN(99)})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 3 || rec.Prev != head.Head {
		t.Fatalf("append after reopen sealed seq %d prev %.12s, want 3 chaining to %.12s", rec.Seq, rec.Prev, head.Head)
	}
}

// TestEveryByteMutationDetected flips every byte of a sealed ledger
// file and requires each mutation to either fail verification at Open
// or decode to the exact same chain (JSON case-insensitive field
// matching makes e.g. "seq"→"Seq" byte-different but semantically
// identical; nothing committed changes).
func TestEveryByteMutationDetected(t *testing.T) {
	dir := t.TempDir()
	lg := openAt(t, dir)
	for i := 0; i < 2; i++ {
		if _, err := lg.Append([]ledger.Leaf{leafN(i), leafN(10 + i), leafN(20 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	want := lg.Records()
	path := ledger.DefaultPath(dir)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	forged := 0
	for pos := 0; pos < len(orig); pos++ {
		mut := append([]byte(nil), orig...)
		mut[pos] ^= 0x20
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := ledger.Open(path, nil)
		if err != nil {
			continue // detected — the common case
		}
		if !reflect.DeepEqual(re.Records(), want) {
			forged++
			t.Errorf("byte %d: mutated ledger opened with a different chain", pos)
			if forged > 5 {
				t.Fatal("giving up after 5 forgeries")
			}
		}
	}
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTruncationCaughtByAudit drops the last ledger record. The
// shortened file is a valid chain prefix — truncation is undetectable
// from the file alone — so the audit must catch it from the store side:
// entries whose leaves were in the dropped record become unledgered.
func TestTruncationCaughtByAudit(t *testing.T) {
	dir := t.TempDir()
	st, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	lg := openAt(t, dir)
	b := ledger.NewBatcher(lg, 1, time.Minute) // seal every write immediately
	rs := ledger.NewRecordingStore(st, b)
	j, res := testJob(), testResult(9)
	if err := rs.Store(j.Fingerprint(), j, res); err != nil {
		t.Fatal(err)
	}
	b.Close()
	if lg.Head().Records != 1 {
		t.Fatalf("expected 1 sealed record, have %d", lg.Head().Records)
	}

	path := ledger.DefaultPath(dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	trunc := bytes.Join(lines[:len(lines)-2], nil) // drop the last record
	if err := os.WriteFile(path, trunc, 0o644); err != nil {
		t.Fatal(err)
	}

	re := openAt(t, dir) // the prefix verifies
	rep, err := ledger.Audit(st, re)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Unledgered) != 1 {
		t.Fatalf("audit of truncated ledger: %+v, want 1 unledgered entry", rep)
	}
	if rep.Err(false, false) == nil {
		t.Fatal("audit passed despite truncation")
	}
	if rep.Err(true, false) != nil {
		t.Fatal("-allow-unledgered should tolerate truncation-shaped reports")
	}
}

func TestBatcherSealsOnSize(t *testing.T) {
	lg := openAt(t, t.TempDir())
	b := ledger.NewBatcher(lg, 4, time.Hour) // only the size policy can fire
	defer b.Close()
	var tickets []*ledger.Ticket
	for i := 0; i < 4; i++ {
		tickets = append(tickets, b.Submit(leafN(i)))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, tk := range tickets {
		p, err := tk.Wait(ctx)
		if err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
		if err := lg.VerifyProof(p); err != nil {
			t.Fatalf("ticket %d proof: %v", i, err)
		}
		if p.Seq != 0 || p.Index != i {
			t.Fatalf("ticket %d sealed at (%d,%d), want (0,%d)", i, p.Seq, p.Index, i)
		}
	}
	if c := b.Counters(); c.Batches != 1 || c.Sealed != 4 {
		t.Fatalf("counters %+v, want one batch of 4", c)
	}
}

func TestBatcherSealsOnWait(t *testing.T) {
	lg := openAt(t, t.TempDir())
	b := ledger.NewBatcher(lg, 1000, 20*time.Millisecond) // only the clock can fire
	defer b.Close()
	t1, t2 := b.Submit(leafN(1)), b.Submit(leafN(2))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	p1, err1 := t1.Wait(ctx)
	p2, err2 := t2.Wait(ctx)
	if err1 != nil || err2 != nil {
		t.Fatalf("waits: %v / %v", err1, err2)
	}
	if p1.Seq != p2.Seq {
		t.Fatalf("two leaves submitted together sealed in different batches (%d vs %d)", p1.Seq, p2.Seq)
	}
}

func TestBatcherCloseDrainsAndRejects(t *testing.T) {
	lg := openAt(t, t.TempDir())
	b := ledger.NewBatcher(lg, 1000, time.Hour)
	tk := b.Submit(leafN(1))
	b.Close()
	if _, err := tk.Proof(); err != nil {
		t.Fatalf("pending leaf not sealed by Close: %v", err)
	}
	late := b.Submit(leafN(2))
	if _, err := late.Proof(); !errors.Is(err, ledger.ErrBatcherClosed) {
		t.Fatalf("submit after Close = %v, want ErrBatcherClosed", err)
	}
	if c := b.Counters(); c.Errors != 1 {
		t.Fatalf("counters after a submit past Close = %+v, want it counted in Errors", c)
	}
}

// TestRecordingStoreAuditLifecycle walks the full provenance loop:
// recorded writes audit clean; a bypassing write shows up unledgered
// and is healed by Backfill; an overwrite behind the ledger's back is
// divergence (caught by Audit and by Scrub's verifier hook); a deleted
// entry is Missing, fatal only under -require-present.
func TestRecordingStoreAuditLifecycle(t *testing.T) {
	dir := t.TempDir()
	st, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	lg := openAt(t, dir)
	b := ledger.NewBatcher(lg, 1, time.Minute)
	rs := ledger.NewRecordingStore(st, b)
	ctx := context.Background()

	j := testJob()
	key := j.Fingerprint()
	if err := rs.Store(key, j, testResult(9)); err != nil {
		t.Fatal(err)
	}
	if got, err := rs.Load(key); err != nil || got == nil {
		t.Fatalf("Load through RecordingStore = (%v, %v)", got, err)
	}
	waitSealed(t, lg, 1)

	rep := mustAudit(t, st, lg)
	if rep.Ledgered != 1 || rep.Err(false, false) != nil {
		t.Fatalf("clean store audits dirty: %+v", rep)
	}

	// Bypass: write a second tuple directly into the store.
	j2 := testJob()
	j2.Params.Seed = 2
	key2 := j2.Fingerprint()
	if err := st.Store(key2, j2, testResult(5)); err != nil {
		t.Fatal(err)
	}
	rep = mustAudit(t, st, lg)
	if len(rep.Unledgered) != 1 || rep.Unledgered[0] != key2 {
		t.Fatalf("bypassing write not flagged: %+v", rep)
	}
	n, err := ledger.Backfill(ctx, st, b)
	if err != nil || n != 1 {
		t.Fatalf("Backfill = (%d, %v), want 1 sealed", n, err)
	}
	rep = mustAudit(t, st, lg)
	if rep.Err(false, false) != nil {
		t.Fatalf("audit after backfill: %+v", rep)
	}

	// Divergence: overwrite key's entry without telling the ledger.
	if err := st.Store(key, j, testResult(1234)); err != nil {
		t.Fatal(err)
	}
	rep = mustAudit(t, st, lg)
	if len(rep.Divergent) != 1 || rep.Divergent[0] != key {
		t.Fatalf("silent overwrite not flagged divergent: %+v", rep)
	}
	if rep.Err(true, false) == nil {
		t.Fatal("divergence must fail the audit under every flag combination")
	}
	st.SetVerifier(ledger.DigestVerifier(lg))
	sr, err := st.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Diverged) != 1 || sr.Diverged[0] != key {
		t.Fatalf("Scrub verifier hook missed the divergence: %+v", sr)
	}

	// Restore honesty, then lose an entry: Missing, tolerated by default.
	if err := rs.Store(key, j, testResult(1234)); err != nil {
		t.Fatal(err)
	}
	b.Flush()
	matches, err := filepath.Glob(filepath.Join(dir, "*", key2+".json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("locating %s: %v %v", key2, matches, err)
	}
	if err := os.Remove(matches[0]); err != nil {
		t.Fatal(err)
	}
	rep = mustAudit(t, st, lg)
	if len(rep.Missing) != 1 || rep.Missing[0] != key2 {
		t.Fatalf("deleted entry not reported missing: %+v", rep)
	}
	if rep.Err(false, false) != nil {
		t.Fatalf("missing entries must be tolerated by default: %v", rep.Err(false, false))
	}
	if rep.Err(false, true) == nil {
		t.Fatal("-require-present must fail on missing entries")
	}
	b.Close()
}

func waitSealed(t *testing.T, lg *ledger.Ledger, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for lg.Head().Leaves < want {
		if time.Now().After(deadline) {
			t.Fatalf("ledger never sealed %d leaves (have %d)", want, lg.Head().Leaves)
		}
		time.Sleep(time.Millisecond)
	}
}

func mustAudit(t *testing.T, st *resultstore.Store, lg *ledger.Ledger) ledger.AuditReport {
	t.Helper()
	rep, err := ledger.Audit(st, lg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestLyingFSCannotForge hammers the ledger through the chaos
// filesystem — torn writes, bit-flipped reads, failed fsyncs,
// crash-before-rename — and then re-reads the file with the honest
// filesystem. Every append the ledger reported as committed must be on
// disk verbatim, and the on-disk chain must verify; an append the
// medium defeated must have been rolled back, never half-believed.
func TestLyingFSCannotForge(t *testing.T) {
	dir := t.TempDir()
	in := chaos.New(7, chaos.Config{
		TornWrite: 0.15, BitFlip: 0.15, ENOSPC: 0.05, SyncFail: 0.05, CrashRename: 0.05,
	})
	lg, err := ledger.Open(ledger.DefaultPath(dir), chaos.NewFS(in))
	if err != nil {
		t.Fatal(err)
	}
	var committed []ledger.Record
	failed := 0
	for i := 0; i < 60; i++ {
		rec, err := lg.Append([]ledger.Leaf{leafN(i), leafN(1000 + i)})
		if err != nil {
			if !errors.Is(err, ledger.ErrUnverifiedAppend) {
				t.Fatalf("append %d: unexpected error class: %v", i, err)
			}
			failed++
			continue
		}
		committed = append(committed, rec)
	}
	if in.Total() == 0 {
		t.Fatal("no faults fired; the test proved nothing")
	}
	t.Logf("%d committed, %d defeated appends, %d faults fired", len(committed), failed, in.Total())

	re, err := ledger.Open(ledger.DefaultPath(dir), nil)
	if err != nil {
		t.Fatalf("honest reopen failed — the lying FS corrupted a verified chain: %v", err)
	}
	onDisk := re.Records()
	for _, rec := range committed {
		if rec.Seq >= len(onDisk) {
			t.Fatalf("committed record seq %d missing from disk (chain has %d)", rec.Seq, len(onDisk))
		}
		if !reflect.DeepEqual(onDisk[rec.Seq], rec) {
			t.Fatalf("committed record seq %d differs on disk", rec.Seq)
		}
		for _, p := range ledger.ProofsFor(rec) {
			if err := re.VerifyProof(p); err != nil {
				t.Fatalf("proof for committed seq %d no longer verifies: %v", rec.Seq, err)
			}
		}
	}
}
