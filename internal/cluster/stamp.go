package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/ledger"
	"repro/internal/provenance"
)

// Completion stamps: every successful report a worker sends carries a
// ledger.Stamp over the provenance leaf its result commits to. The
// worker cannot produce an inclusion proof — only the coordinator's
// ledger seals batches — but it can commit to exactly what it computed:
// the coordinator recomputes the same leaf from the payload it handed
// out and the result bytes it got back, and rejects the completion when
// the commitments disagree (Config.VerifyCompletion, wired to
// VerifyCompletion by the serving binary when the ledger is on). A
// rejected completion costs the item one attempt, exactly like a
// failure report: a worker that keeps mis-stamping exhausts the retry
// budget and the item quarantines instead of poisoning the store.

// completionLeaf derives the provenance leaf one completion commits to.
// For sim items it is byte-identical to the leaf the coordinator's
// RecordingStore seals when it publishes the result — key, entry
// digest, config fingerprint, scheme, workload — so the stamp chains
// the worker's computation to the sealed ledger entry. Campaign tuples
// have no store entry; their leaf commits to the raw report bytes.
func completionLeaf(kind string, payload, result json.RawMessage) (ledger.Leaf, error) {
	switch kind {
	case KindSim:
		var j engine.Job
		if err := json.Unmarshal(payload, &j); err != nil {
			return ledger.Leaf{}, fmt.Errorf("cluster: decoding sim work: %w", err)
		}
		var res engine.Result
		if err := json.Unmarshal(result, &res); err != nil {
			return ledger.Leaf{}, fmt.Errorf("cluster: decoding sim outcome: %w", err)
		}
		return ledger.ResultLeaf(j.Fingerprint(), j, &res)
	default:
		h := sha256.Sum256(result)
		return ledger.Leaf{
			Kind:     ledger.LeafCompletion,
			Key:      itemID(kind, payload),
			Digest:   hex.EncodeToString(h[:]),
			Revision: provenance.Revision(),
		}, nil
	}
}

// StampCompletion builds the wire-form stamp a worker attaches to one
// successful completion report.
func StampCompletion(kind string, payload, result json.RawMessage) (json.RawMessage, error) {
	leaf, err := completionLeaf(kind, payload, result)
	if err != nil {
		return nil, err
	}
	h := leaf.Hash()
	return json.Marshal(ledger.Stamp{Leaf: leaf, LeafHash: hex.EncodeToString(h[:])})
}

// VerifyCompletion is the coordinator-side check: the stamp must be
// internally consistent and its leaf must match the one the
// coordinator derives from the payload it issued and the result bytes
// it received. The revision is the worker's attestation about its own
// binary — it is required to be present but not required to equal the
// coordinator's (mixed-build fleets are legitimate; the ledger records
// who computed what, it does not force lockstep deploys).
func VerifyCompletion(kind string, payload, result, stamp json.RawMessage) error {
	if len(stamp) == 0 {
		return errors.New("cluster: completion carries no provenance stamp")
	}
	var st ledger.Stamp
	if err := json.Unmarshal(stamp, &st); err != nil {
		return fmt.Errorf("cluster: decoding stamp: %w", err)
	}
	if err := st.Verify(); err != nil {
		return err
	}
	want, err := completionLeaf(kind, payload, result)
	if err != nil {
		return err
	}
	got := st.Leaf
	if got.Kind != want.Kind || got.Key != want.Key || got.Digest != want.Digest ||
		got.ConfigFP != want.ConfigFP || got.Scheme != want.Scheme || got.Workload != want.Workload {
		return fmt.Errorf("cluster: stamp leaf (key %s, digest %.12s..) does not match the reported result (key %s, digest %.12s..)",
			got.Key, got.Digest, want.Key, want.Digest)
	}
	if got.Revision == "" {
		return errors.New("cluster: stamp carries no code revision")
	}
	return nil
}
