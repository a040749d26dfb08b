package resultstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/provenance"
)

// TestSchemaV2ReadCompat: entries written before the provenance schema
// (v2, no rev field) must keep loading, and their provenance view must
// report the unknown revision rather than inventing one.
func TestSchemaV2ReadCompat(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, res := testJob(), testResult()
	key := j.Fingerprint()
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	v2 := entry{Schema: 2, Key: key, Job: j.String(), Digest: digest(raw), Result: raw}
	data, err := json.Marshal(v2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key[:2], key+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := s.Load(key)
	if err != nil || got == nil {
		t.Fatalf("Load of schema-2 entry = (%v, %v), want hit", got, err)
	}
	info, err := VerifyEntry(key, data)
	if err != nil {
		t.Fatal(err)
	}
	if info.Schema != 2 || info.Rev != provenance.Unknown {
		t.Fatalf("schema-2 provenance view = %+v, want schema 2 / unknown rev", info)
	}

	// Schema versions outside [min, current] stay rejected.
	for _, bad := range []int{1, schemaVersion + 1} {
		v := v2
		v.Schema = bad
		data, _ := json.Marshal(v)
		if _, err := VerifyEntry(key, data); err == nil {
			t.Fatalf("schema %d entry verified; want rejection", bad)
		}
	}
}

// TestWalkDeterministicOrder: Walk must visit live entries in sorted
// key order, identically across calls — the property backfill, audit
// and Scrub lean on for reproducible reports.
func TestWalkDeterministicOrder(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, res := testJob(), testResult()
	var want []string
	for i := 0; i < 8; i++ {
		jj := j
		jj.Params.Seed = int64(100 + i)
		key := jj.Fingerprint()
		if err := s.Store(key, jj, res); err != nil {
			t.Fatal(err)
		}
		want = append(want, key)
	}
	sort.Strings(want)

	walk := func() []string {
		var keys []string
		err := s.Walk(func(key string, raw []byte, readErr error) error {
			if readErr != nil {
				t.Fatalf("walk read %s: %v", key, readErr)
			}
			if _, err := VerifyEntry(key, raw); err != nil {
				t.Fatalf("walk handed unverifiable bytes for %s: %v", key, err)
			}
			keys = append(keys, key)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return keys
	}
	first := walk()
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("walk order %v, want sorted %v", first, want)
	}
	if second := walk(); !reflect.DeepEqual(first, second) {
		t.Fatalf("walk not deterministic: %v then %v", first, second)
	}
}

// TestWalkSkipsServiceDirs: quarantined corpses and the ledger
// directory are not live entries; Walk must not hand them to callers,
// and Len must agree with Walk.
func TestWalkSkipsServiceDirs(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, res := testJob(), testResult()
	key := j.Fingerprint()
	if err := s.Store(key, j, res); err != nil {
		t.Fatal(err)
	}
	// A corrupt sibling gets quarantined on Load.
	j2 := j
	j2.Params.Seed = 2
	key2 := j2.Fingerprint()
	if err := s.Store(key2, j2, res); err != nil {
		t.Fatal(err)
	}
	p2 := filepath.Join(dir, key2[:2], key2+".json")
	if err := os.WriteFile(p2, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(key2); err == nil {
		t.Fatal("corrupt entry loaded")
	}
	// Ledger files live under the store root but are not entries.
	if err := os.MkdirAll(filepath.Join(dir, LedgerDir), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, LedgerDir, "ledger.jsonl"), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var keys []string
	if err := s.Walk(func(k string, raw []byte, readErr error) error {
		keys = append(keys, k)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != key {
		t.Fatalf("walk visited %v, want only %s", keys, key)
	}
	n, err := s.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
	q, err := s.Quarantined()
	if err != nil {
		t.Fatal(err)
	}
	if q != 1 {
		t.Fatalf("Quarantined = %d, want 1", q)
	}
}

// TestWalkStopsOnCallbackError: a callback error aborts the walk and
// surfaces to the caller.
func TestWalkStopsOnCallbackError(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, res := testJob(), testResult()
	for i := 0; i < 3; i++ {
		jj := j
		jj.Params.Seed = int64(i + 1)
		if err := s.Store(jj.Fingerprint(), jj, res); err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	werr := s.Walk(func(k string, raw []byte, readErr error) error {
		seen++
		return fmt.Errorf("stop here")
	})
	if werr == nil || seen != 1 {
		t.Fatalf("walk (err %v, visited %d), want the first callback error to abort", werr, seen)
	}
}
