package litmus

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenCuratedReport regenerates the committed curated-sweep report
// (proteus-litmus -programs curated -faults all) through the library and
// requires the same bytes.
func TestGoldenCuratedReport(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "curated.json"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), Config{Programs: Curated(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := rep.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("report differs from testdata/curated.json (%d bytes vs %d)", got.Len(), len(want))
	}
}
