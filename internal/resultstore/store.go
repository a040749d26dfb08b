// Package resultstore is the persistent, content-addressed simulation
// result cache behind internal/engine and the serving layer. Each entry
// is one successfully completed simulation, keyed by the full job-tuple
// fingerprint (engine.Job.Fingerprint(): workload kind, params, scheme,
// config.Config.Fingerprint() and logging options), so a key collision
// would require a fingerprint collision — which the config package's
// field-coverage test guards against as Config grows.
//
// Layout: <dir>/<key[:2]>/<key>.json, one JSON document per entry,
// written atomically (temp file + fsync + rename). The store therefore
// survives process restarts and concurrent writers: two processes
// storing the same key race benignly — both write identical bytes — and
// a crash mid-write never leaves a truncated entry at a live name.
//
// The store does not trust its own disk: every entry carries a sha256
// digest of its result payload, recomputed on Load, so a torn write a
// lying kernel published, a flipped bit, or a truncated document is
// detected rather than served. Detection is self-healing: the corrupt
// file is renamed into <dir>/quarantine/ (preserved for forensics, out
// of the live namespace), Load returns the typed ErrCorruptEntry, and
// the caller — the engine treats any Load error as a miss — simply
// re-simulates and re-stores a clean entry. Scrub walks the whole store
// and applies the same verification offline.
//
// Robustness over freshness: an unreadable, corrupt, mismatched or
// wrong-schema entry is reported as a miss (or typed corruption), so the
// worst failure mode of the cache is re-simulation.
package resultstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/provenance"
)

// schemaVersion is bumped whenever the entry encoding changes shape.
// Version 2 added the result payload digest; version 3 added the VCS
// revision of the producing binary. Entries older than minSchemaVersion
// (or newer than schemaVersion) are misses.
const (
	schemaVersion    = 3
	minSchemaVersion = 2
)

// quarantineDir is the subdirectory corrupt entries are renamed into.
// It is outside the shard namespace (shards are two hex characters), so
// quarantined files can never shadow a live key.
const quarantineDir = "quarantine"

// LedgerDir is the subdirectory (next to the shards, like quarantine/)
// where the provenance ledger lives. The store's traversals skip it; it
// is owned by internal/ledger and exported here only so both packages
// agree on the name.
const LedgerDir = "ledger"

// ErrCorruptEntry marks an entry that was present on disk but failed
// verification: unparseable, truncated, wrong key, wrong schema, or a
// result payload whose sha256 digest does not match the recorded one.
// The offending file has already been quarantined when this is
// returned; callers treat it as a miss and re-simulate.
var ErrCorruptEntry = errors.New("resultstore: corrupt entry")

var keyRE = regexp.MustCompile(`^[0-9a-f]{4,64}$`)

// entry is the on-disk document. Field order is the canonical encoding
// order: marshaling the same result always yields the same bytes, which
// is what makes concurrent same-key writers benign and lets callers
// compare cached and live payloads byte-for-byte. Result stays raw on
// load so Digest — sha256 over exactly those bytes — can be verified
// before anything is decoded or returned.
type entry struct {
	Schema int             `json:"schema"`
	Key    string          `json:"key"`
	Job    string          `json:"job"` // human-readable tuple, for debugging only
	Rev    string          `json:"rev,omitempty"`
	Digest string          `json:"digest"`
	Result json.RawMessage `json:"result"`
}

// Counters snapshots store activity.
type Counters struct {
	// Hits counts Load calls that returned a result.
	Hits uint64
	// Misses counts Load calls that found nothing usable (including
	// corrupt or unreadable entries).
	Misses uint64
	// Writes counts successful Store calls.
	Writes uint64
	// Errors counts Load/Store calls that failed on I/O or encoding.
	Errors uint64
	// Corrupt counts entries that were present but failed verification
	// (truncated, unparseable, digest mismatch) on Load or Scrub.
	Corrupt uint64
	// Quarantined counts corrupt files successfully renamed into the
	// quarantine/ subdirectory.
	Quarantined uint64
}

// Store is an on-disk result cache. It is safe for concurrent use by
// multiple goroutines and multiple processes sharing the directory.
type Store struct {
	dir string
	fs  FS

	// verifier, when set, lets Scrub cross-check healthy entries
	// against the provenance ledger (see SetVerifier).
	verifier atomic.Pointer[Verifier]

	hits        atomic.Uint64
	misses      atomic.Uint64
	writes      atomic.Uint64
	errs        atomic.Uint64
	corrupt     atomic.Uint64
	quarantined atomic.Uint64
}

// Open returns a store rooted at dir, creating it if needed.
func Open(dir string) (*Store, error) {
	return OpenFS(dir, osFS{})
}

// OpenFS is Open with an explicit filesystem — the injection point for
// internal/chaos's faulty FS. fsys == nil means the real filesystem.
func OpenFS(dir string, fsys FS) (*Store, error) {
	if dir == "" {
		return nil, errors.New("resultstore: empty directory")
	}
	if fsys == nil {
		fsys = osFS{}
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	return &Store{dir: dir, fs: fsys}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Counters snapshots the store's activity counters.
func (s *Store) Counters() Counters {
	return Counters{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Writes:      s.writes.Load(),
		Errors:      s.errs.Load(),
		Corrupt:     s.corrupt.Load(),
		Quarantined: s.quarantined.Load(),
	}
}

// path shards entries by the first two key characters to keep directory
// fan-out bounded on large stores.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key[:2], key+".json")
}

// digest is the content digest recorded with (and verified against)
// every entry's raw result bytes.
func digest(raw []byte) string {
	h := sha256.Sum256(raw)
	return hex.EncodeToString(h[:])
}

// decode verifies one on-disk document against the key it lives under
// and returns the result it carries plus the verified entry envelope.
// Any failure means the entry is corrupt (or foreign) and must not be
// served. Schema 2 entries (no revision field) remain readable: the
// digest discipline is identical, they just predate provenance.
func decode(key string, data []byte) (*engine.Result, *entry, error) {
	var e entry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, nil, fmt.Errorf("unparseable: %w", err)
	}
	if e.Schema < minSchemaVersion || e.Schema > schemaVersion {
		return nil, nil, fmt.Errorf("schema %d, want %d..%d", e.Schema, minSchemaVersion, schemaVersion)
	}
	if e.Key != key {
		return nil, nil, fmt.Errorf("key %q under name %q", e.Key, key)
	}
	if got := digest(e.Result); got != e.Digest {
		return nil, nil, fmt.Errorf("result digest %.12s.., recorded %.12s..", got, e.Digest)
	}
	var r engine.Result
	if err := json.Unmarshal(e.Result, &r); err != nil {
		return nil, nil, fmt.Errorf("result payload: %w", err)
	}
	if r.Report == nil {
		return nil, nil, errors.New("entry carries no report")
	}
	return &r, &e, nil
}

// EntryInfo is the provenance-relevant view of one verified entry.
type EntryInfo struct {
	// Key is the job fingerprint the entry is stored under.
	Key string `json:"key"`
	// Job is the human-readable "kind/scheme/mem" tuple.
	Job string `json:"job"`
	// Rev is the VCS revision of the binary that produced the entry
	// (provenance.Unknown for schema-2 entries, which predate it).
	Rev string `json:"rev"`
	// Digest is the sha256 over the entry's raw result bytes — the value
	// a ledger leaf records and an audit compares.
	Digest string `json:"digest"`
	// Schema is the entry's on-disk schema version.
	Schema int `json:"schema"`
}

// VerifyEntry runs the full Load-path verification on one raw on-disk
// document (as handed to a Walk callback) without touching the store,
// and returns its provenance view. It is the audit primitive: a
// non-nil error means the bytes would be quarantined on Load.
func VerifyEntry(key string, raw []byte) (EntryInfo, error) {
	_, e, err := decode(key, raw)
	if err != nil {
		return EntryInfo{}, fmt.Errorf("%w: key %s: %v", ErrCorruptEntry, key, err)
	}
	rev := e.Rev
	if rev == "" {
		rev = provenance.Unknown
	}
	return EntryInfo{Key: e.Key, Job: e.Job, Rev: rev, Digest: e.Digest, Schema: e.Schema}, nil
}

// EntryDigest computes the digest a stored copy of res would carry —
// sha256 over the canonical encoding of the result payload, exactly as
// Store records it. It is what ledger leaves commit to, computed
// without a store round-trip.
func EntryDigest(res *engine.Result) (string, error) {
	if res == nil || res.Report == nil {
		return "", errors.New("resultstore: empty result has no digest")
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return "", fmt.Errorf("resultstore: %w", err)
	}
	return digest(raw), nil
}

// Load implements engine.ResultStore: it returns the stored result for
// key, or (nil, nil) when the store has nothing usable. An entry that is
// present but fails verification is quarantined and reported as
// ErrCorruptEntry — the engine treats any Load error as a miss, so the
// net effect is re-simulation followed by a clean re-publish: the store
// heals itself through its own miss path.
func (s *Store) Load(key string) (*engine.Result, error) {
	if !keyRE.MatchString(key) {
		s.misses.Add(1)
		return nil, nil
	}
	data, err := s.fs.ReadFile(s.path(key))
	if err != nil {
		s.misses.Add(1)
		if !errors.Is(err, fs.ErrNotExist) {
			s.errs.Add(1)
		}
		return nil, nil
	}
	res, _, verr := decode(key, data)
	if verr != nil {
		s.misses.Add(1)
		s.corrupt.Add(1)
		s.quarantine(s.path(key), key)
		return nil, fmt.Errorf("%w: key %s: %v", ErrCorruptEntry, key, verr)
	}
	s.hits.Add(1)
	return res, nil
}

// quarantine moves a corrupt file out of the live namespace, preserving
// it for forensics. If the rename fails (the quarantine dir itself may
// be sick) the file is removed instead, so a bad entry can never shadow
// the clean rewrite that follows re-simulation.
func (s *Store) quarantine(path, key string) {
	qdir := filepath.Join(s.dir, quarantineDir)
	if err := s.fs.MkdirAll(qdir, 0o755); err == nil {
		if err := s.fs.Rename(path, filepath.Join(qdir, key+".json")); err == nil {
			s.quarantined.Add(1)
			return
		}
	}
	s.errs.Add(1)
	if s.fs.Remove(path) != nil {
		// Could not even remove it: the next Load will re-detect it, and
		// Store's rename will overwrite it. Nothing more to do.
		return
	}
	s.quarantined.Add(1)
}

// Store implements engine.ResultStore: it persists res under key with an
// atomic write-then-rename, so a crash never leaves a partial entry.
func (s *Store) Store(key string, j engine.Job, res *engine.Result) error {
	if !keyRE.MatchString(key) {
		s.errs.Add(1)
		return fmt.Errorf("resultstore: malformed key %q", key)
	}
	if res == nil || res.Report == nil {
		s.errs.Add(1)
		return errors.New("resultstore: refusing to store an empty result")
	}
	raw, err := json.Marshal(res)
	if err != nil {
		s.errs.Add(1)
		return fmt.Errorf("resultstore: %w", err)
	}
	e := entry{
		Schema: schemaVersion,
		Key:    key,
		Job:    j.String(),
		Rev:    provenance.Revision(),
		Digest: digest(raw),
		Result: raw,
	}
	data, err := json.Marshal(e)
	if err != nil {
		s.errs.Add(1)
		return fmt.Errorf("resultstore: %w", err)
	}
	path := s.path(key)
	if err := s.fs.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		s.errs.Add(1)
		return fmt.Errorf("resultstore: %w", err)
	}
	if err := writeFileAtomic(s.fs, path, data, 0o644); err != nil {
		s.errs.Add(1)
		return fmt.Errorf("resultstore: %w", err)
	}
	s.writes.Add(1)
	return nil
}

// scanResult is one deterministic pass over the store's directory tree:
// live entries sorted by key, leftover temp files from crashed writers,
// and the count of quarantined corpses. Every traversal consumer — Len,
// Walk, Scrub, Quarantined, the ledger's backfill and audit — is built
// on this one walk, so they all agree on what "the store's contents"
// means (quarantine/ is corpses, ledger/ is not entries, temps are not
// entries).
type scanResult struct {
	live        []liveEntry
	temps       []string
	quarantined int
}

type liveEntry struct {
	key  string
	path string
}

func (s *Store) scan() (scanResult, error) {
	var sc scanResult
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != s.dir && d.Name() == LedgerDir {
				return fs.SkipDir
			}
			return nil
		}
		if filepath.Base(filepath.Dir(path)) == quarantineDir {
			sc.quarantined++
			return nil
		}
		if strings.Contains(d.Name(), ".tmp-") {
			sc.temps = append(sc.temps, path)
			return nil
		}
		if filepath.Ext(path) != ".json" {
			return nil
		}
		sc.live = append(sc.live, liveEntry{key: strings.TrimSuffix(d.Name(), ".json"), path: path})
		return nil
	})
	sort.Slice(sc.live, func(i, j int) bool { return sc.live[i].key < sc.live[j].key })
	return sc, err
}

// Len walks the store and returns the number of live entries on disk
// (quarantined files are not entries).
func (s *Store) Len() (int, error) {
	sc, err := s.scan()
	return len(sc.live), err
}

// Walk visits every live entry in ascending key order, handing the
// callback the key, the raw on-disk bytes, and any read error for that
// entry (the walk continues either way; a non-nil readErr comes with
// nil raw bytes). Returning a non-nil error from fn stops the walk and
// propagates the error. Walk does not verify entries — pair it with
// VerifyEntry — and never mutates the store, so auditors can run it
// against a store that is actively serving.
func (s *Store) Walk(fn func(key string, raw []byte, readErr error) error) error {
	sc, err := s.scan()
	if err != nil {
		return err
	}
	for _, le := range sc.live {
		data, rerr := s.fs.ReadFile(le.path)
		if rerr != nil {
			data = nil
		}
		if ferr := fn(le.key, data, rerr); ferr != nil {
			return ferr
		}
	}
	return nil
}

// ScrubReport summarizes one Scrub pass.
type ScrubReport struct {
	// Scanned is the number of live entries examined.
	Scanned int `json:"scanned"`
	// Healthy entries passed verification.
	Healthy int `json:"healthy"`
	// Corrupt entries failed verification and were quarantined.
	Corrupt int `json:"corrupt"`
	// Quarantined lists the keys moved aside, sorted.
	Quarantined []string `json:"quarantined,omitempty"`
	// TempsRemoved counts leftover .tmp- files (crashed writers) that
	// were swept away.
	TempsRemoved int `json:"temps_removed"`
	// Diverged lists keys whose entries verified locally but disagree
	// with the external verifier (the provenance ledger): the bytes are
	// internally consistent yet not the bytes the ledger committed to.
	// Sorted; empty when no verifier is installed.
	Diverged []string `json:"diverged,omitempty"`
}

// Scrub walks every live entry, verifies it exactly as Load would, and
// quarantines the ones that fail — the offline repair pass that turns a
// disk full of latent corruption back into a store whose every future
// Load is either a verified hit or an honest miss. Leftover temp files
// from crashed writers are removed. Scrub is safe to run while the
// store is serving, with one caveat: a concurrent writer's in-flight
// temp file may be swept, failing that single Store call (the engine
// drops store-write errors, so the worst case is one re-simulation).
func (s *Store) Scrub() (ScrubReport, error) {
	var rep ScrubReport
	verify := s.verifier.Load()
	sc, err := s.scan()
	if err != nil {
		return rep, err
	}
	for _, tmp := range sc.temps {
		if s.fs.Remove(tmp) == nil {
			rep.TempsRemoved++
		}
	}
	for _, le := range sc.live {
		rep.Scanned++
		data, rerr := s.fs.ReadFile(le.path)
		if rerr != nil {
			s.errs.Add(1)
			continue
		}
		_, e, verr := decode(le.key, data)
		if verr != nil {
			rep.Corrupt++
			rep.Quarantined = append(rep.Quarantined, le.key)
			s.corrupt.Add(1)
			s.quarantine(le.path, le.key)
			continue
		}
		rep.Healthy++
		if verify != nil && *verify != nil {
			if cerr := (*verify)(le.key, e.Digest); cerr != nil {
				rep.Diverged = append(rep.Diverged, le.key)
			}
		}
	}
	sort.Strings(rep.Quarantined)
	sort.Strings(rep.Diverged)
	return rep, err
}

// Verifier cross-checks one locally-verified entry against an external
// source of truth — in practice the provenance ledger. It receives the
// entry's key and recorded digest and returns a non-nil error when the
// external record disagrees. Entries the external source has never
// heard of should return nil: absence means "not ledgered yet" (a
// pending batch), not divergence.
type Verifier func(key, digest string) error

// SetVerifier installs (or, with nil, removes) the external verifier
// Scrub consults for every healthy entry. Safe to call concurrently
// with Scrub; typically wired once at startup to the ledger.
func (s *Store) SetVerifier(v Verifier) {
	s.verifier.Store(&v)
}

// Quarantined returns the number of files currently parked in the
// quarantine directory (not the lifetime counter — the on-disk truth).
func (s *Store) Quarantined() (int, error) {
	sc, err := s.scan()
	return sc.quarantined, err
}
