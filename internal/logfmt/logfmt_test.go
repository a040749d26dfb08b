package logfmt

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func TestProteusRoundtrip(t *testing.T) {
	prop := func(data [isa.LogBlockSize]byte, from uint64, tx uint32, seq uint64, last bool) bool {
		e := ProteusEntry{Data: data, From: from, Tx: tx, Seq: seq, Last: last}
		line := EncodeProteus(e)
		d, st := DecodeProteusChecked(line[:])
		return st == LineValid && d == e
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProteusInvalidLine(t *testing.T) {
	var zero [isa.LineSize]byte
	if _, st := DecodeProteusChecked(zero[:]); st == LineValid {
		t.Fatal("zero line decoded as valid entry")
	}
	if _, st := DecodeProteusChecked(zero[:]); st != LineEmpty {
		t.Fatalf("zero line state = %v, want empty", st)
	}
	if _, st := DecodeProteusChecked(nil); st == LineValid {
		t.Fatal("nil decoded as valid entry")
	}
}

// TestProteusIntegrity: any torn prefix or single flipped bit of a whole
// entry must decode as corrupt — never as a different valid entry, and
// never as empty unless the result is all-zero.
func TestProteusIntegrity(t *testing.T) {
	var data [isa.LogBlockSize]byte
	for i := range data {
		data[i] = byte(i + 1)
	}
	line := EncodeProteus(ProteusEntry{Data: data, From: 0x1_0000_0040, Tx: 7, Seq: 9})
	for words := 0; words < 8; words++ {
		torn := [isa.LineSize]byte{}
		copy(torn[:], line[:words*8])
		_, st := DecodeProteusChecked(torn[:])
		if words == 0 {
			if st != LineEmpty {
				t.Fatalf("empty tear state = %v", st)
			}
			continue
		}
		if st != LineCorrupt {
			t.Fatalf("torn at %d words: state = %v, want corrupt", words, st)
		}
	}
	for bit := 0; bit < isa.LineSize*8; bit++ {
		flipped := line
		flipped[bit/8] ^= 1 << (bit % 8)
		if _, st := DecodeProteusChecked(flipped[:]); st == LineValid {
			t.Fatalf("bit flip at %d still decodes as valid", bit)
		}
	}
}

func TestSetProteusLast(t *testing.T) {
	line := EncodeProteus(ProteusEntry{From: 0x40, Tx: 3})
	SetProteusLast(&line)
	e, st := DecodeProteusChecked(line[:])
	if st != LineValid || !e.Last {
		t.Fatalf("mark not set: state=%v last=%v", st, e.Last)
	}
}

func TestPairRoundtrip(t *testing.T) {
	prop := func(from, tx uint64, ln uint8, crc uint32) bool {
		e := PairEntry{From: from, Tx: tx, Len: uint64(ln), DataCRC: crc}
		line := EncodePairMeta(e)
		d, st := DecodePairMetaChecked(line[:])
		return st == LineValid && d.From == from && d.Tx == tx && d.Len == uint64(ln) && d.DataCRC == crc
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPairInvalid(t *testing.T) {
	var zero [isa.LineSize]byte
	if _, st := DecodePairMetaChecked(zero[:]); st == LineValid {
		t.Fatal("zero meta decoded as valid")
	}
	if _, st := DecodePairMetaChecked(zero[:]); st != LineEmpty {
		t.Fatalf("zero meta state = %v, want empty", st)
	}
}

// TestPairIntegrity mirrors TestProteusIntegrity for the two-line format.
func TestPairIntegrity(t *testing.T) {
	var data [isa.LineSize]byte
	for i := range data {
		data[i] = byte(i * 7)
	}
	line := EncodePairMeta(PairEntry{From: 0x1_0000_0080, Tx: 5, Len: isa.LineSize, DataCRC: PairDataCRC(data[:])})
	for words := 1; words < 4; words++ {
		torn := [isa.LineSize]byte{}
		copy(torn[:], line[:words*8])
		if _, st := DecodePairMetaChecked(torn[:]); st != LineCorrupt {
			t.Fatalf("torn meta at %d words: state = %v, want corrupt", words, st)
		}
	}
	for bit := 0; bit < pairMetaEnd*8; bit++ {
		flipped := line
		flipped[bit/8] ^= 1 << (bit % 8)
		if _, st := DecodePairMetaChecked(flipped[:]); st == LineValid {
			t.Fatalf("meta bit flip at %d still decodes as valid", bit)
		}
	}
	// Data corruption is caught through the DataCRC carried in the meta.
	flipped := data
	flipped[13] ^= 0x10
	if PairDataCRC(flipped[:]) == PairDataCRC(data[:]) {
		t.Fatal("data CRC did not change under a bit flip")
	}
}

func TestLogFlagPacking(t *testing.T) {
	prop := func(tx uint32, n uint16) bool {
		w := PackLogFlag(tx, int(n))
		gt, gn := UnpackLogFlag(w)
		return gt == tx && gn == int(n)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
	if PackLogFlag(0, 0) != 0 {
		t.Fatal("empty flag must be zero (the no-transaction state)")
	}
}

func TestRegionHelpers(t *testing.T) {
	for thread := 0; thread < 4; thread++ {
		if !isa.IsPersistentAddr(LogFlagAddr(thread)) {
			t.Fatalf("logFlag of %d not persistent", thread)
		}
		if !isa.IsLogAddr(SWLogBase(thread)) {
			t.Fatalf("sw log base of %d not in log region", thread)
		}
	}
}
