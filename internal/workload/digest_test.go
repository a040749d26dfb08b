package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"repro/internal/heap"
)

// buildDigest hashes everything a build hands its users: the init image
// (serialized, and its block count), every heap's recorded transactions
// (ID, lock, ops, hints, allocs, and the pre- and post-images sorted by
// address) and each heap image's block count.
func buildDigest(t *testing.T, w *Workload) string {
	t.Helper()
	d := sha256.New()
	if err := w.InitImage.Serialize(d); err != nil {
		t.Fatal(err)
	}
	var buf [8]byte
	put := func(vs ...uint64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], v)
			d.Write(buf[:])
		}
	}
	words := func(m map[uint64]uint64) {
		addrs := make([]uint64, 0, len(m))
		for a := range m {
			addrs = append(addrs, a)
		}
		slices.Sort(addrs)
		put(uint64(len(m)))
		for _, a := range addrs {
			put(a, m[a])
		}
	}
	ranges := func(rs []heap.Range) {
		put(uint64(len(rs)))
		for _, r := range rs {
			put(r.Addr, uint64(r.Size))
		}
	}
	put(uint64(w.InitImage.Blocks()))
	for _, h := range w.Heaps {
		put(uint64(len(h.Txns)))
		for _, txn := range h.Txns {
			put(uint64(txn.ID), txn.Lock, uint64(len(txn.Ops)))
			for _, a := range txn.Ops {
				put(uint64(a.Kind), a.Addr, a.Val)
			}
			ranges(txn.Hints)
			ranges(txn.Allocs)
			words(txn.Pre)
			words(txn.Post)
		}
		put(uint64(h.Image().Blocks()))
	}
	return hex.EncodeToString(d.Sum(nil))
}

// TestBuildDigests pins what a build produces, for the six Table 2
// benchmarks and the linked list at DefaultParams(50) with two threads
// and with three (uneven structure ownership). The digests were taken
// from the serial build that wrote every word through the NVM store, so
// a build that runs its threads elsewhere or keeps their lines elsewhere
// must hand over the same init image and the same recordings.
func TestBuildDigests(t *testing.T) {
	want := map[string]string{
		"QE/2": "c1cbea26b975c944beb8cae8dffcec66300c15468a92e54597dc18ac062e3957",
		"HM/2": "b41460ae9091c765578457c4d68f2c1e0d727870be01e37666d60dac2d00fb15",
		"SS/2": "8569470c6623ab3174271139cf3e08e403b2ae2516bc1d6efe097126a91b9329",
		"AT/2": "cef7f10bc7cec749669d8686846a734ca9565a0761434a9f96b6664844c575c3",
		"BT/2": "094cc41ea2f53acf3747ac85b030ebf8c4ab2efef7f9ff69d4ab3b7fdd7950f6",
		"RT/2": "70eecd11ec35d65c25fbb1d09689b27efedaa8ecccbc0a395024b9739c8fb89d",
		"LL/2": "3366b3025cf3b9b5b1cc8214020a116b3b9976c9072bec54d15a5973e3d47489",
		"QE/3": "f62e4c8b80eeb82d729a1ce047d9d70d331d06cf5f97896af8aadae4b6789db6",
		"HM/3": "3a6706189e3b7eca55db1acb66c6d30451cbbdb3e0b3f7ae1229828f6682f748",
		"SS/3": "ec7cc79b3f09ece91c6bf85976840c0cb9c661355cdf48cdefdb017c8bfaffc5",
		"AT/3": "26546dda6189df4d22c38243eaae0c411ad555a4046ca3ea4f5b55777b471f4c",
		"BT/3": "2003139002e43a7204f0cc44ed83bba858795a186469f7e6f70adaee8d16bf90",
		"RT/3": "89bea455337c8f10aa5e00351b196811f43f7f3e5a08e70e00ecdad43d560ed7",
		"LL/3": "737ea9fabee138f5487d54a3b6841c74bfcfa6386443043bf0122d23ecfbfdc3",
	}
	for _, threads := range []int{2, 3} {
		for _, k := range slices.Concat(Table2, []Kind{LinkedList}) {
			name := fmt.Sprintf("%v/%d", k, threads)
			p := k.DefaultParams(50)
			p.Threads = threads
			w, err := Build(k, p)
			if err != nil {
				t.Fatal(err)
			}
			if got := buildDigest(t, w); got != want[name] {
				t.Errorf("%s: build digest %s, want %s", name, got, want[name])
			}
		}
	}
}
