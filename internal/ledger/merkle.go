// Merkle layer of the provenance ledger: leaf hashing, batch trees,
// and inclusion proofs.
//
// Leaf and interior hashes are domain-separated (0x00 vs 0x01 prefix),
// so an interior node can never be reinterpreted as a leaf — the
// classic second-preimage defense. Leaf fields are length-prefixed
// before hashing, so no concatenation of two field values can collide
// with a different split of the same bytes. Odd levels duplicate their
// last node, which keeps proof verification a pure fold over the
// sibling path driven by the leaf index's bits.
package ledger

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
)

// Leaf kinds. A result leaf commits to a stored simulation result; an
// admission leaf records that the serve path accepted a job (what was
// asked, by which code) before any result exists.
const (
	LeafResult    = "result"
	LeafAdmission = "admission"
)

// Leaf is one provenance fact: what (key, digest), produced how
// (config fingerprint, scheme, workload) and by which code (VCS
// revision). Empty fields hash as empty strings — the length prefix
// keeps "" distinct from an absent field ever being skipped.
type Leaf struct {
	Kind     string `json:"kind"`
	Key      string `json:"key"`
	Digest   string `json:"digest,omitempty"`
	ConfigFP string `json:"config,omitempty"`
	Scheme   string `json:"scheme,omitempty"`
	Workload string `json:"workload,omitempty"`
	Revision string `json:"revision,omitempty"`
}

const (
	leafTag byte = 0x00
	nodeTag byte = 0x01
)

// Hash returns the leaf's hash: sha256 over the leaf domain tag and
// the length-prefixed fields, in declaration order.
func (l Leaf) Hash() [32]byte {
	h := sha256.New()
	h.Write([]byte{leafTag})
	var n [8]byte
	for _, f := range []string{l.Kind, l.Key, l.Digest, l.ConfigFP, l.Scheme, l.Workload, l.Revision} {
		binary.LittleEndian.PutUint64(n[:], uint64(len(f)))
		h.Write(n[:])
		h.Write([]byte(f))
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func nodeHash(left, right [32]byte) [32]byte {
	h := sha256.New()
	h.Write([]byte{nodeTag})
	h.Write(left[:])
	h.Write(right[:])
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// merkleLevels builds the full tree bottom-up: levels[0] is the leaf
// hashes, the last level has exactly one node (the root). Odd levels
// pair their last node with itself.
func merkleLevels(leaves [][32]byte) [][][32]byte {
	if len(leaves) == 0 {
		return nil
	}
	levels := [][][32]byte{leaves}
	for cur := leaves; len(cur) > 1; {
		next := make([][32]byte, 0, (len(cur)+1)/2)
		for i := 0; i < len(cur); i += 2 {
			right := cur[i]
			if i+1 < len(cur) {
				right = cur[i+1]
			} else {
				right = cur[i] // duplicate-last pairing
			}
			next = append(next, nodeHash(cur[i], right))
		}
		levels = append(levels, next)
		cur = next
	}
	return levels
}

// merkleRoot returns the root over the given leaf hashes.
func merkleRoot(leaves [][32]byte) [32]byte {
	levels := merkleLevels(leaves)
	if levels == nil {
		return [32]byte{}
	}
	return levels[len(levels)-1][0]
}

// siblingPath returns the bottom-up sibling hashes proving leaf i's
// inclusion, given the prebuilt levels.
func siblingPath(levels [][][32]byte, i int) [][32]byte {
	var path [][32]byte
	for _, level := range levels[:len(levels)-1] {
		sib := i ^ 1
		if sib >= len(level) {
			sib = i // odd level: the duplicated node is its own sibling
		}
		path = append(path, level[sib])
		i >>= 1
	}
	return path
}

// foldPath recomputes the root from a leaf hash, its index, and its
// sibling path — the verification side of siblingPath.
func foldPath(leaf [32]byte, index int, path [][32]byte) [32]byte {
	h := leaf
	for _, sib := range path {
		if index&1 == 1 {
			h = nodeHash(sib, h)
		} else {
			h = nodeHash(h, sib)
		}
		index >>= 1
	}
	return h
}

// InclusionProof ties one leaf to a sealed batch and to the ledger
// head published after that batch: the leaf hashes through Path to
// Root, and Root is committed by the ledger record at Seq whose chain
// value is Head. Verify checks the Merkle arithmetic; binding Root and
// Head to an actual ledger is Ledger.VerifyProof's job (a proof is
// only as good as the head you trust).
type InclusionProof struct {
	Seq   int      `json:"seq"`
	Index int      `json:"index"`
	Leaf  Leaf     `json:"leaf"`
	Path  []string `json:"path"`
	Root  string   `json:"root"`
	Head  string   `json:"head"`
}

// Verify checks the proof's internal Merkle consistency. It rejects
// out-of-range indexes explicitly: with a path of length L the index
// must fit in L bits, otherwise bits beyond the path would be silently
// ignored and two different indexes could "verify" the same path.
func (p InclusionProof) Verify() error {
	if p.Seq < 0 {
		return errors.New("ledger: proof seq negative")
	}
	if len(p.Path) > 62 {
		return errors.New("ledger: proof path implausibly deep")
	}
	if p.Index < 0 || p.Index >= 1<<uint(len(p.Path)) {
		return fmt.Errorf("ledger: proof index %d out of range for path depth %d", p.Index, len(p.Path))
	}
	path := make([][32]byte, len(p.Path))
	for i, s := range p.Path {
		b, err := hex.DecodeString(s)
		if err != nil || len(b) != 32 {
			return fmt.Errorf("ledger: proof path[%d] is not a sha256 hex digest", i)
		}
		copy(path[i][:], b)
	}
	root := foldPath(p.Leaf.Hash(), p.Index, path)
	if hex.EncodeToString(root[:]) != p.Root {
		return errors.New("ledger: proof does not hash to its root")
	}
	return nil
}
