package experiments

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/workload"
)

// quickRun is every table of one shared Quick() suite, computed once for
// the whole package: the golden test and the per-table Quick tests read
// the same tables, so each tuple (Table 3's included) simulates once.
type quickRun struct {
	names     []string // the order tables run and render in
	tables    map[string]*stats.Table
	t3        *Table3Result
	nvmDelta  float64
	dramDelta float64
	counters  engine.Counters
	err       error
}

var (
	quickOnce sync.Once
	quick     quickRun
)

// quickTables runs the suite in proteus-bench's order: -fig all, then
// -fig ablations.
func quickTables(t *testing.T) *quickRun {
	t.Helper()
	quickOnce.Do(func() {
		s := NewSuite(context.Background(), Quick(), engine.New(engine.Config{}))
		q := &quick
		q.tables = make(map[string]*stats.Table)
		add := func(name string, f func() (*stats.Table, error)) {
			if q.err != nil {
				return
			}
			tab, err := f()
			q.names = append(q.names, name)
			q.tables[name], q.err = tab, err
		}
		add("6", s.Figure6)
		add("7", s.Figure7)
		add("8", s.Figure8)
		add("9", s.Figure9)
		add("10", s.Figure10)
		add("11", s.Figure11)
		add("12", s.Figure12)
		add("t3", func() (*stats.Table, error) {
			res, err := s.Table3()
			if err != nil {
				return nil, err
			}
			q.t3 = res
			return res.Speedups, nil
		})
		add("t4", s.Table4)
		if q.err == nil {
			q.nvmDelta, q.dramDelta, q.err = s.LogQMemoryDelta()
		}
		add("persistency", s.PersistencyModels)
		add("llt", s.LLTSweep)
		add("static-elim", s.StaticVsDynamicFiltering)
		add("atom-inflight", s.ATOMInFlightSweep)
		add("wpq", s.WPQSweep)
		add("wpq-drain", s.WPQDrainSweep)
		q.counters = s.Engine().Counters()
	})
	if quick.err != nil {
		t.Fatal(quick.err)
	}
	return &quick
}

// golden renders everything the golden file pins: each table as text and
// as full-precision CSV, Table 3's per-transaction counts, the §7.2
// deltas and the engine's execution counts.
func (q *quickRun) golden() []byte {
	var b bytes.Buffer
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, name := range q.names {
		fmt.Fprintf(&b, "== %s\n%s\n", name, q.tables[name])
		if err := q.tables[name].WriteCSV(&b); err != nil {
			panic(err)
		}
		b.WriteByte('\n')
	}
	b.WriteString("== t3 log entries per transaction (before LLT, flushed)\n")
	for _, n := range Table3Sizes {
		fmt.Fprintf(&b, "%d %s %s\n", n, g(q.t3.EntriesPerTxn[n]), g(q.t3.FlushedPerTxn[n]))
	}
	fmt.Fprintf(&b, "\n== logq-delta (NVM, DRAM)\n%s %s\n", g(q.nvmDelta), g(q.dramDelta))
	fmt.Fprintf(&b, "\n== engine\nsimulated %d\nfailed %d\nworkloads built %d\n",
		q.counters.Simulated, q.counters.Failed, q.counters.WorkloadsBuilt)
	return b.Bytes()
}

// TestTablesMatchGolden pins every Suite table byte for byte at Quick()
// scale. On a mismatch the whole rendering is written to a temporary
// file; copy it over the golden only when a modeled number is meant to
// change.
func TestTablesMatchGolden(t *testing.T) {
	q := quickTables(t)
	t.Logf("engine counters: %+v", q.counters)
	got := q.golden()
	want, err := os.ReadFile(filepath.Join("testdata", "quick-tables.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	line := 0
	for line < min(len(gotLines), len(wantLines))-1 && gotLines[line] == wantLines[line] {
		line++
	}
	f, err := os.CreateTemp("", "quick-tables-*.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(got); err != nil {
		t.Fatal(err)
	}
	t.Fatalf("tables differ from testdata/quick-tables.golden at line %d:\n got: %q\nwant: %q\nthis run's rendering: %s",
		line+1, gotLines[line], wantLines[line], f.Name())
}

// The Quick tests below read the shared tables. Magnitudes at this scale
// are distorted, so only structural properties and weak ordering
// relations are asserted.

func TestFigure6Quick(t *testing.T) {
	tab := quickTables(t).tables["6"]
	t.Logf("\n%s", tab)
	if len(tab.Rows) != len(workload.Table2)+1 { // + geomean
		t.Fatalf("rows: %v", tab.Rows)
	}
	for _, k := range workload.Table2 {
		pc := tab.Get(k.Abbrev(), "PMEM+pcommit")
		ideal := tab.Get(k.Abbrev(), "PMEM+nolog")
		proteus := tab.Get(k.Abbrev(), "Proteus")
		if pc >= 1 {
			t.Errorf("%v: pcommit speedup %.2f not below 1", k, pc)
		}
		if ideal < 1 {
			t.Errorf("%v: ideal speedup %.2f below 1", k, ideal)
		}
		if proteus <= pc {
			t.Errorf("%v: Proteus (%.2f) not above pcommit (%.2f)", k, proteus, pc)
		}
	}
}

func TestFigure8Quick(t *testing.T) {
	tab := quickTables(t).tables["8"]
	t.Logf("\n%s", tab)
	for _, k := range workload.Table2 {
		atom := tab.Get(k.Abbrev(), "ATOM")
		proteus := tab.Get(k.Abbrev(), "Proteus")
		if atom <= proteus {
			t.Errorf("%v: ATOM writes (%.2fx) not above Proteus (%.2fx)", k, atom, proteus)
		}
		if proteus > 1.6 {
			t.Errorf("%v: Proteus write amplification %.2fx too high", k, proteus)
		}
		if got := tab.Get(k.Abbrev(), "PMEM+nolog"); got != 1 {
			t.Errorf("%v: nolog not normalized to 1 (%.3f)", k, got)
		}
	}
}

func TestTable4Quick(t *testing.T) {
	tab := quickTables(t).tables["t4"]
	t.Logf("\n%s", tab)
	for _, k := range workload.Table2 {
		r := tab.Get(k.Abbrev(), "miss rate")
		if r <= 0 || r > 100 {
			t.Errorf("%v: miss rate %.1f out of range", k, r)
		}
	}
}

func TestFigure11Quick(t *testing.T) {
	tab := quickTables(t).tables["11"]
	t.Logf("\n%s", tab)
	// Speedup must not degrade drastically as the LogQ grows.
	for _, k := range workload.Table2 {
		small := tab.Get(k.Abbrev(), "LogQ=1")
		large := tab.Get(k.Abbrev(), "LogQ=64")
		if large < small*0.9 {
			t.Errorf("%v: LogQ=64 (%.2f) much worse than LogQ=1 (%.2f)", k, large, small)
		}
	}
}

func TestTable3Quick(t *testing.T) {
	res := quickTables(t).t3
	t.Logf("\n%s", res.Speedups)
	for _, n := range Table3Sizes {
		if res.EntriesPerTxn[n] < float64(n)/8 {
			t.Errorf("size %d: only %.0f log ops per txn", n, res.EntriesPerTxn[n])
		}
		if res.FlushedPerTxn[n] >= res.EntriesPerTxn[n] {
			t.Errorf("size %d: LLT filtered nothing (%.0f of %.0f)", n, res.FlushedPerTxn[n], res.EntriesPerTxn[n])
		}
	}
}

func TestAblationsQuick(t *testing.T) {
	q := quickTables(t)
	pm := q.tables["persistency"]
	t.Logf("\n%s", pm)
	if g := pm.Get("geomean", "strict"); g < 1.0 {
		t.Errorf("strict persistency geomean slowdown %.2f below 1", g)
	}
	if want := []string{"durable-tx", "strict"}; !slices.Equal(pm.Cols, want) {
		t.Errorf("persistency columns %v, want %v", pm.Cols, want)
	}

	se := q.tables["static-elim"]
	t.Logf("\n%s", se)
	if r := se.Get("geomean", "logops-emitted-ratio"); r >= 1 {
		t.Errorf("static elimination emitted ratio %.2f not below 1", r)
	}

	llt := q.tables["llt"]
	t.Logf("\n%s", llt)
	// A larger LLT cannot have a (much) higher miss rate.
	for _, k := range workload.Table2 {
		small := llt.Get(k.Abbrev(), "LLT=8")
		big := llt.Get(k.Abbrev(), "LLT=256")
		if big > small+1 {
			t.Errorf("%v: LLT=256 miss rate %.1f above LLT=8 %.1f", k, big, small)
		}
	}
}
