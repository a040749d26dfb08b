// Package ledger is the tamper-evident provenance ledger behind the
// result store: an append-only sequence of sealed batches, each a
// Merkle tree over provenance leaves, whose roots chain into a single
// head hash that summarizes the whole store history.
//
// On disk the ledger is one JSONL file — one record per sealed batch —
// living in <store>/ledger/ next to the shards it describes. Every
// append rewrites the file atomically through the same FS seam the
// result store uses, so the chaos harness's lying filesystem injects
// faults into ledger writes too; the writer then reads the file back
// and compares bytes, because a medium that lies about writes
// (PR 9's torn writes, bit flips, crash-before-rename) must not be
// able to publish a head the process never computed. Open re-verifies
// the entire chain — every root recomputed from its leaves, every head
// recomputed from its predecessor — so a tampered or truncated file is
// rejected as ErrCorruptLedger rather than trusted.
//
// The ledger is a single-writer structure: one process (the serving
// coordinator, or the proteus-ledger CLI) appends; any number of
// processes may read. This mirrors the paper's own logging discipline —
// one logging agent per log, readers verify.
package ledger

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sync"

	"repro/internal/resultstore"
)

// FileName is the ledger file's name inside resultstore.LedgerDir.
const FileName = "ledger.jsonl"

// ErrCorruptLedger marks a ledger file that failed chain verification:
// unparseable, out-of-sequence, a root that does not match its leaves,
// or a head that does not match its predecessor. A corrupt ledger is
// never partially trusted — Open refuses it outright.
var ErrCorruptLedger = errors.New("ledger: corrupt ledger")

// ErrUnverifiedAppend reports that an append could not be confirmed on
// the medium: the write "succeeded" but reading the file back did not
// return the bytes that were written, repeatedly. The in-memory chain
// is rolled back so ledger state never silently diverges from what the
// process believes it published.
var ErrUnverifiedAppend = errors.New("ledger: append not verified on medium")

// ErrNoProof reports that the ledger holds no leaf for the given key.
var ErrNoProof = errors.New("ledger: no leaf for key")

// appendVerifyAttempts bounds the write→read-back retry loop. Under
// the chaos soak's fault rates the chance of this many consecutive
// lies is negligible; on honest media the first attempt verifies.
const appendVerifyAttempts = 8

// Record is one sealed batch: the Merkle root over Leaves, chained to
// the previous record by Head = H(prev head ‖ root ‖ seq ‖ count).
type Record struct {
	Seq    int    `json:"seq"`
	Prev   string `json:"prev"`
	Root   string `json:"root"`
	Leaves []Leaf `json:"leaves"`
	Head   string `json:"head"`
}

const headTag byte = 0x02

// headOf computes the chain value a record publishes.
func headOf(prev, root string, seq, count int) string {
	h := sha256.New()
	h.Write([]byte{headTag})
	var n [8]byte
	for _, f := range []string{prev, root} {
		binary.LittleEndian.PutUint64(n[:], uint64(len(f)))
		h.Write(n[:])
		h.Write([]byte(f))
	}
	binary.LittleEndian.PutUint64(n[:], uint64(seq))
	h.Write(n[:])
	binary.LittleEndian.PutUint64(n[:], uint64(count))
	h.Write(n[:])
	return hex.EncodeToString(h.Sum(nil))
}

// recordRoot recomputes the Merkle root over a record's leaves.
func recordRoot(leaves []Leaf) string {
	hashes := make([][32]byte, len(leaves))
	for i, l := range leaves {
		hashes[i] = l.Hash()
	}
	root := merkleRoot(hashes)
	return hex.EncodeToString(root[:])
}

// leafRef locates one leaf: record index and position within it.
type leafRef struct {
	rec, leaf int
}

// Ledger is the in-memory view of one verified ledger file plus the
// writer that extends it. Safe for concurrent use by multiple
// goroutines; see the package comment for the single-writer-process
// rule.
type Ledger struct {
	path string
	fs   resultstore.FS

	mu      sync.Mutex
	records []Record
	data    []byte               // exact on-disk bytes of the verified chain
	index   map[string][]leafRef // key → leaf positions, oldest first
}

// DefaultPath returns the ledger file path for a store rooted at dir.
func DefaultPath(storeDir string) string {
	return filepath.Join(storeDir, resultstore.LedgerDir, FileName)
}

// Open reads, verifies and indexes the ledger at path, creating the
// notion of an empty ledger when the file does not exist yet. fsys ==
// nil means the real filesystem. Any verification failure is reported
// as ErrCorruptLedger; an unreadable file keeps its underlying error.
func Open(path string, fsys resultstore.FS) (*Ledger, error) {
	if fsys == nil {
		fsys = resultstore.OSFS()
	}
	l := &Ledger{path: path, fs: fsys, index: make(map[string][]leafRef)}
	data, err := fsys.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return l, nil
	}
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	records, err := parseChain(data)
	if err != nil {
		return nil, err
	}
	l.records = records
	l.data = data
	for ri, r := range records {
		for li, leaf := range r.Leaves {
			l.index[leaf.Key] = append(l.index[leaf.Key], leafRef{ri, li})
		}
	}
	return l, nil
}

// parseChain decodes and fully verifies a ledger file's bytes.
func parseChain(data []byte) ([]Record, error) {
	var records []Record
	prev := ""
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("%w: record %d unparseable: %v", ErrCorruptLedger, len(records), err)
		}
		if r.Seq != len(records) {
			return nil, fmt.Errorf("%w: record %d carries seq %d", ErrCorruptLedger, len(records), r.Seq)
		}
		if r.Prev != prev {
			return nil, fmt.Errorf("%w: record %d chains to %.12s.., want %.12s..", ErrCorruptLedger, r.Seq, r.Prev, prev)
		}
		if len(r.Leaves) == 0 {
			return nil, fmt.Errorf("%w: record %d seals no leaves", ErrCorruptLedger, r.Seq)
		}
		if got := recordRoot(r.Leaves); got != r.Root {
			return nil, fmt.Errorf("%w: record %d root %.12s.. does not match its leaves", ErrCorruptLedger, r.Seq, r.Root)
		}
		if got := headOf(r.Prev, r.Root, r.Seq, len(r.Leaves)); got != r.Head {
			return nil, fmt.Errorf("%w: record %d head does not match its chain", ErrCorruptLedger, r.Seq)
		}
		records = append(records, r)
		prev = r.Head
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptLedger, err)
	}
	return records, nil
}

// Head summarizes the chain tip.
type Head struct {
	// Head is the chain value after the last sealed batch ("" for an
	// empty ledger).
	Head string `json:"head"`
	// Records is the number of sealed batches.
	Records int `json:"records"`
	// Leaves is the total number of leaves across all batches.
	Leaves int `json:"leaves"`
}

// Head returns the current chain tip.
func (l *Ledger) Head() Head {
	l.mu.Lock()
	defer l.mu.Unlock()
	h := Head{Records: len(l.records)}
	for _, r := range l.records {
		h.Leaves += len(r.Leaves)
	}
	if n := len(l.records); n > 0 {
		h.Head = l.records[n-1].Head
	}
	return h
}

// Records returns a copy of the verified chain.
func (l *Ledger) Records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Record, len(l.records))
	copy(out, l.records)
	return out
}

// Append seals leaves into a new record, publishes the extended chain
// atomically, and confirms the publish by reading the file back. On a
// verified publish the record is returned; on persistent medium lies
// the in-memory chain is rolled back and ErrUnverifiedAppend returned,
// so the ledger never believes in a head the disk does not hold.
func (l *Ledger) Append(leaves []Leaf) (Record, error) {
	if len(leaves) == 0 {
		return Record{}, errors.New("ledger: refusing to seal an empty batch")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	prev := ""
	if n := len(l.records); n > 0 {
		prev = l.records[n-1].Head
	}
	rec := Record{
		Seq:    len(l.records),
		Prev:   prev,
		Root:   recordRoot(leaves),
		Leaves: append([]Leaf(nil), leaves...),
	}
	rec.Head = headOf(rec.Prev, rec.Root, rec.Seq, len(rec.Leaves))
	line, err := json.Marshal(rec)
	if err != nil {
		return Record{}, fmt.Errorf("ledger: %w", err)
	}
	newData := make([]byte, 0, len(l.data)+len(line)+1)
	newData = append(newData, l.data...)
	newData = append(newData, line...)
	newData = append(newData, '\n')

	if err := l.fs.MkdirAll(filepath.Dir(l.path), 0o755); err != nil {
		return Record{}, fmt.Errorf("ledger: %w", err)
	}
	if err := l.publishVerified(newData); err != nil {
		return Record{}, err
	}
	l.data = newData
	l.records = append(l.records, rec)
	for li, leaf := range rec.Leaves {
		l.index[leaf.Key] = append(l.index[leaf.Key], leafRef{rec.Seq, li})
	}
	return rec, nil
}

// publishVerified writes data atomically and reads it back until the
// medium returns exactly those bytes. A read-back can only pass when
// the true on-disk content equals data: a torn write changes the
// length, and a lying read of a good write merely forces a retry.
func (l *Ledger) publishVerified(data []byte) error {
	var lastErr error
	for attempt := 0; attempt < appendVerifyAttempts; attempt++ {
		if err := resultstore.WriteFileAtomicFS(l.fs, l.path, data, 0o644); err != nil {
			lastErr = err
			continue
		}
		got, err := l.fs.ReadFile(l.path)
		if err == nil && bytes.Equal(got, data) {
			return nil
		}
		if err != nil {
			lastErr = err
		} else {
			lastErr = errors.New("read-back mismatch")
		}
	}
	return fmt.Errorf("%w: %v", ErrUnverifiedAppend, lastErr)
}

// Proof returns the inclusion proof for the newest leaf recorded under
// key, optionally filtered to one leaf kind ("" accepts any).
func (l *Ledger) Proof(key, kind string) (InclusionProof, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	refs := l.index[key]
	for i := len(refs) - 1; i >= 0; i-- {
		leaf := l.records[refs[i].rec].Leaves[refs[i].leaf]
		if kind == "" || leaf.Kind == kind {
			return ProofsFor(l.records[refs[i].rec])[refs[i].leaf], nil
		}
	}
	return InclusionProof{}, fmt.Errorf("%w: %s", ErrNoProof, key)
}

// ProofsFor builds the inclusion proofs for every leaf of one sealed
// record, sharing a single tree construction — what the batcher hands
// back to each submitter after a flush.
func ProofsFor(rec Record) []InclusionProof {
	hashes := make([][32]byte, len(rec.Leaves))
	for i, leaf := range rec.Leaves {
		hashes[i] = leaf.Hash()
	}
	levels := merkleLevels(hashes)
	proofs := make([]InclusionProof, len(rec.Leaves))
	for i := range rec.Leaves {
		path := siblingPath(levels, i)
		hexPath := make([]string, len(path))
		for j, p := range path {
			hexPath[j] = hex.EncodeToString(p[:])
		}
		proofs[i] = InclusionProof{
			Seq:   rec.Seq,
			Index: i,
			Leaf:  rec.Leaves[i],
			Path:  hexPath,
			Root:  rec.Root,
			Head:  rec.Head,
		}
	}
	return proofs
}

// VerifyProof binds a proof to this ledger: the Merkle arithmetic must
// hold and the record at proof.Seq must carry exactly the proof's root
// and head with the index in range. A proof that verifies here is a
// commitment by this chain — any mutation of the leaf, the path, the
// root, or the ledger record breaks it.
func (l *Ledger) VerifyProof(p InclusionProof) error {
	if err := p.Verify(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if p.Seq >= len(l.records) {
		return fmt.Errorf("ledger: proof seq %d beyond chain tip %d", p.Seq, len(l.records)-1)
	}
	rec := l.records[p.Seq]
	if p.Index >= len(rec.Leaves) {
		return fmt.Errorf("ledger: proof index %d beyond record's %d leaves", p.Index, len(rec.Leaves))
	}
	if rec.Root != p.Root {
		return errors.New("ledger: proof root does not match the sealed record")
	}
	if rec.Head != p.Head {
		return errors.New("ledger: proof head does not match the sealed record")
	}
	if rec.Leaves[p.Index] != p.Leaf {
		return errors.New("ledger: proof leaf does not match the sealed record")
	}
	return nil
}

// LatestResultDigest returns the digest of the newest result leaf for
// key, with ok == false when the ledger has no result leaf for it.
func (l *Ledger) LatestResultDigest(key string) (string, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	refs := l.index[key]
	for i := len(refs) - 1; i >= 0; i-- {
		leaf := l.records[refs[i].rec].Leaves[refs[i].leaf]
		if leaf.Kind == LeafResult {
			return leaf.Digest, true
		}
	}
	return "", false
}

// DigestVerifier adapts the ledger to resultstore.Verifier: a healthy
// store entry diverges when the ledger's newest result leaf for its
// key commits to a different digest. Keys the ledger has never sealed
// pass — they may sit in a batch that has not flushed yet.
func DigestVerifier(l *Ledger) func(key, digest string) error {
	return func(key, digest string) error {
		want, ok := l.LatestResultDigest(key)
		if !ok {
			return nil
		}
		if want != digest {
			return fmt.Errorf("ledger: entry %s digest %.12s.. diverges from sealed %.12s..", key, digest, want)
		}
		return nil
	}
}
