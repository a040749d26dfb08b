package stats

import (
	"encoding/csv"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Fatalf("geomean(2,8) = %v", g)
	}
	if g := GeoMean(nil); !math.IsNaN(g) {
		t.Fatalf("geomean(nil) = %v, want NaN", g)
	}
	if g := GeoMean([]float64{-1, 0, math.NaN()}); !math.IsNaN(g) {
		t.Fatalf("geomean of all-invalid = %v, want NaN", g)
	}
	// Non-positive and NaN cells (failed runs) are skipped, not zeroing:
	// the mean covers the surviving elements.
	if g := GeoMean([]float64{2, 8, -1, 0, math.NaN()}); math.Abs(g-4) > 1e-9 {
		t.Fatalf("geomean skipping invalid = %v, want 4", g)
	}
	// Scale invariance: geomean(kx) = k*geomean(x).
	prop := func(a, b uint8) bool {
		x := []float64{float64(a) + 1, float64(b) + 1}
		g1 := GeoMean(x)
		g2 := GeoMean([]float64{x[0] * 3, x[1] * 3})
		return math.Abs(g2-3*g1) < 1e-9*g2
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpeedup(t *testing.T) {
	base := &Report{Cycles: 1000}
	fast := &Report{Cycles: 500}
	if s := fast.Speedup(base); s != 2 {
		t.Fatalf("speedup %v", s)
	}
	if s := base.Speedup(base); s != 1 {
		t.Fatalf("self speedup %v", s)
	}
}

func TestTable(t *testing.T) {
	tab := NewTable("title", "bench", []string{"A", "B"}, []string{"x", "y"})
	tab.Set("A", "x", 1.5)
	tab.Set("B", "y", 2.5)
	if tab.Get("A", "x") != 1.5 {
		t.Fatal("get/set mismatch")
	}
	tab.AddGeoMeanRow()
	out := tab.String()
	for _, want := range []string{"title", "bench", "A", "B", "geomean", "1.500"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTableUnknownCellPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on unknown cell")
		}
	}()
	NewTable("", "r", []string{"a"}, []string{"b"}).Set("nope", "b", 1)
}

func TestCoreStallAggregation(t *testing.T) {
	var c Core
	c.StallCycles[StallROB] = 10
	c.StallCycles[StallLogQ] = 5
	if got := c.FrontEndStalls(); got != 15 {
		t.Fatalf("front-end stalls %d", got)
	}
}

func TestLLTMissRate(t *testing.T) {
	var c Core
	if c.LLTMissRate() != 0 {
		t.Fatal("empty LLT rate nonzero")
	}
	c.LLTHits, c.LLTMisses = 75, 25
	if r := c.LLTMissRate(); math.Abs(r-25) > 1e-9 {
		t.Fatalf("miss rate %v", r)
	}
	rep := Report{CoreStat: []Core{{LLTHits: 50, LLTMisses: 50}, {LLTHits: 100, LLTMisses: 0}}}
	if r := rep.LLTMissRate(); math.Abs(r-25) > 1e-9 {
		t.Fatalf("aggregated rate %v", r)
	}
}

func TestMemNVMWrites(t *testing.T) {
	var m Mem
	m.Writes[WriteData] = 3
	m.Writes[WriteLog] = 2
	m.Writes[WriteTruncate] = 1
	if m.NVMWrites() != 6 {
		t.Fatalf("total %d", m.NVMWrites())
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("t", "bench", []string{"A"}, []string{"x", "y"})
	tab.Set("A", "x", 1.25)
	tab.Set("A", "y", 2.5)
	var buf strings.Builder
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "bench,x,y\nA,1.25,2.5\n"
	if buf.String() != want {
		t.Fatalf("csv:\n%q\nwant:\n%q", buf.String(), want)
	}
}

// TestTableCSVRoundTrip is the regression test for the precision-6
// export bug: cells must survive CSV export byte-exactly, including raw
// cycle counts far above 1e6 and NaN "missing" cells.
func TestTableCSVRoundTrip(t *testing.T) {
	tab := NewTable("t", "bench", []string{"A", "B"}, []string{"x", "y"})
	tab.Set("A", "x", 123456789.25) // would clip to 1.23457e+08 at precision 6
	tab.Set("A", "y", 0.3333333333333333)
	tab.Set("B", "x", math.NaN()) // failed run: missing cell
	tab.Set("B", "y", 2.5)
	var buf strings.Builder
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(tab.Rows)+1 {
		t.Fatalf("csv has %d records, want %d", len(recs), len(tab.Rows)+1)
	}
	for i, row := range tab.Rows {
		for j, col := range tab.Cols {
			got, err := strconv.ParseFloat(recs[i+1][j+1], 64)
			if err != nil {
				t.Fatalf("cell (%s,%s) = %q: %v", row, col, recs[i+1][j+1], err)
			}
			want := tab.Get(row, col)
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("cell (%s,%s) round-tripped to %v, want %v", row, col, got, want)
			}
		}
	}
}

func TestTableStringRendersNaNAsDash(t *testing.T) {
	tab := NewTable("t", "bench", []string{"A", "B"}, []string{"x"})
	tab.Set("A", "x", 2.0)
	tab.Set("B", "x", math.NaN())
	tab.AddGeoMeanRow() // geomean over the survivor: 2.0
	out := tab.String()
	if !strings.Contains(out, "-") {
		t.Fatalf("NaN cell not rendered as -:\n%s", out)
	}
	if strings.Contains(out, "NaN") {
		t.Fatalf("raw NaN leaked into rendering:\n%s", out)
	}
	if !strings.Contains(out, "2.000") {
		t.Fatalf("geomean over survivors missing:\n%s", out)
	}
}

func TestTableJSONRoundtrip(t *testing.T) {
	tab := NewTable("title", "bench", []string{"A", "B"}, []string{"x"})
	tab.Set("A", "x", 1.5)
	tab.Set("B", "x", 2.5)
	data, err := json.Marshal(tab)
	if err != nil {
		t.Fatal(err)
	}
	var got Table
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Title != "title" || got.Get("B", "x") != 2.5 {
		t.Fatalf("roundtrip: %+v", got)
	}
	// Malformed: missing row data.
	if err := json.Unmarshal([]byte(`{"title":"t","rows":["A"],"cols":["x"],"cells":{}}`), &got); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}
