// Package stats collects the counters the paper reports (cycles,
// front-end stall cycles, NVMM writes by cause, logging activity) and
// provides the aggregation helpers (geometric mean, speedup) used by the
// experiment harness.
package stats

import (
	"fmt"
	"log"
	"math"
	"strings"
)

// StallCause classifies why dispatch was blocked in a cycle (Figure 7
// breaks performance down by front-end stalls).
type StallCause int

const (
	StallROB StallCause = iota
	StallLoadQ
	StallStoreQ
	StallLogReg // no free Proteus log register
	StallLogQ   // LogQ full: dispatch must stall (§4.2)
	numStallCauses
)

func (c StallCause) String() string {
	switch c {
	case StallROB:
		return "rob"
	case StallLoadQ:
		return "loadq"
	case StallStoreQ:
		return "storeq"
	case StallLogReg:
		return "logreg"
	case StallLogQ:
		return "logq"
	}
	return fmt.Sprintf("StallCause(%d)", int(c))
}

// WriteCause classifies NVMM writes (Figure 8 separates logging writes
// from data writes).
type WriteCause int

const (
	WriteData     WriteCause = iota // regular write-back / clwb of data
	WriteLog                        // log-entry creation reaching NVMM
	WriteTruncate                   // log truncation / invalidation writes (ATOM)
	numWriteCauses
)

func (c WriteCause) String() string {
	switch c {
	case WriteData:
		return "data"
	case WriteLog:
		return "log"
	case WriteTruncate:
		return "truncate"
	}
	return fmt.Sprintf("WriteCause(%d)", int(c))
}

// Core holds one core's counters.
type Core struct {
	Cycles        uint64 // cycles until this core drained its trace
	Retired       uint64 // micro-ops retired
	StallCycles   [numStallCauses]uint64
	LoadHitsL1    uint64
	LoadHitsL2    uint64
	LoadHitsL3    uint64
	LoadMisses    uint64
	Stores        uint64
	Clwbs         uint64
	Sfences       uint64
	TxCommitted   uint64
	LogLoads      uint64
	LogFlushes    uint64
	LLTHits       uint64
	LLTMisses     uint64
	LogOverflow   uint64 // circular log-area wrap-arounds within a transaction
	ATOMLogDelays uint64 // cycles stores spent held at retirement waiting for log acks
	SfenceWait    uint64 // cycles an sfence blocked retirement at the ROB head
	PcommitWait   uint64 // cycles a pcommit blocked retirement at the ROB head
	SBWPQBlocked  uint64 // cycles the store-buffer head was refused by the WPQ
	TxEndWait     uint64 // cycles tx-end actions blocked retirement
}

// FrontEndStalls sums the stall cycles that block dispatch for lack of
// resources (ROB, LSQ, log structures), matching Figure 7's metric.
func (c *Core) FrontEndStalls() uint64 {
	var t uint64
	for _, n := range c.StallCycles {
		t += n
	}
	return t
}

// LLTMissRate returns the LLT miss rate in percent (Table 4).
func (c *Core) LLTMissRate() float64 {
	tot := c.LLTHits + c.LLTMisses
	if tot == 0 {
		return 0
	}
	return 100 * float64(c.LLTMisses) / float64(tot)
}

// Mem holds the memory-side counters.
type Mem struct {
	Reads          uint64
	Writes         [numWriteCauses]uint64 // NVMM writes by cause
	WPQCoalesced   uint64                 // writes merged into an existing WPQ entry
	LPQAccepted    uint64                 // log flushes accepted into the LPQ
	LPQDropped     uint64                 // log entries flash-cleared before reaching NVMM
	LPQDrained     uint64                 // log entries that did reach NVMM
	RowBufferHits  uint64
	RowBufferMiss  uint64
	ReadQFullStall uint64
	WPQFullStall   uint64
	// WPQResidency accumulates cycles entries spent in the WPQ from
	// arrival to drain completion; divide by drained writes for the mean.
	WPQResidency uint64
	WPQDrained   uint64
	// WPQIssueDelay accumulates cycles entries waited before being issued
	// to the device.
	WPQIssueDelay uint64
	// WPQService accumulates device service cycles (issue to completion).
	WPQService uint64
	// ReadLatency accumulates MC read service cycles; ReadsServed counts
	// device reads (excludes WPQ forwards).
	ReadLatency uint64
	ReadsServed uint64
	WPQForwards uint64
	// BankBusy accumulates bank occupancy cycles across all banks.
	BankBusy uint64
}

// NVMWrites is the total number of writes that reached NVMM.
func (m *Mem) NVMWrites() uint64 {
	var t uint64
	for _, w := range m.Writes {
		t += w
	}
	return t
}

// Report is the complete result of one simulation run.
type Report struct {
	Label    string
	Cycles   uint64 // max over cores: wall-clock of the run
	CoreStat []Core
	MemStat  Mem
}

// TotalFrontEndStalls sums front-end stalls over all cores.
func (r *Report) TotalFrontEndStalls() uint64 {
	var t uint64
	for i := range r.CoreStat {
		t += r.CoreStat[i].FrontEndStalls()
	}
	return t
}

// TotalRetired sums retired micro-ops over all cores.
func (r *Report) TotalRetired() uint64 {
	var t uint64
	for i := range r.CoreStat {
		t += r.CoreStat[i].Retired
	}
	return t
}

// LLTMissRate aggregates the LLT miss rate over all cores in percent.
func (r *Report) LLTMissRate() float64 {
	var hits, misses uint64
	for i := range r.CoreStat {
		hits += r.CoreStat[i].LLTHits
		misses += r.CoreStat[i].LLTMisses
	}
	if hits+misses == 0 {
		return 0
	}
	return 100 * float64(misses) / float64(hits+misses)
}

// TotalLogFlushes sums log flushes issued to the MC over all cores.
func (r *Report) TotalLogFlushes() uint64 {
	var t uint64
	for i := range r.CoreStat {
		t += r.CoreStat[i].LogFlushes
	}
	return t
}

// Speedup returns base.Cycles / r.Cycles, the convention of Figures 6,
// 9-12 (values above 1 mean r is faster than base).
func (r *Report) Speedup(base *Report) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(r.Cycles)
}

// GeoMean returns the geometric mean of the positive elements of xs.
// Non-positive and NaN elements — a failed or timed-out run's missing
// cell — are skipped rather than zeroing the whole mean; when nothing
// positive remains the result is NaN (rendered "-" by Table).
func GeoMean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x <= 0 || math.IsNaN(x) {
			continue
		}
		sum += math.Log(x)
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(sum / float64(n))
}

// Table renders a fixed-width table: one row per name in rows, one column
// per series. cell(row, col) supplies each value. It is used by the
// experiment harness to print the same rows/series the paper's figures
// plot.
type Table struct {
	Title   string
	RowName string
	Rows    []string
	Cols    []string
	Cells   [][]float64 // [row][col]
	Format  string      // value format, default "%8.3f"
}

// NewTable allocates a table with the given shape.
func NewTable(title, rowName string, rows, cols []string) *Table {
	cells := make([][]float64, len(rows))
	for i := range cells {
		cells[i] = make([]float64, len(cols))
	}
	return &Table{Title: title, RowName: rowName, Rows: rows, Cols: cols, Cells: cells, Format: "%8.3f"}
}

// Set stores a value by row and column name.
func (t *Table) Set(row, col string, v float64) {
	ri := indexOf(t.Rows, row)
	ci := indexOf(t.Cols, col)
	if ri < 0 || ci < 0 {
		panic(fmt.Sprintf("stats: unknown table cell (%q, %q)", row, col))
	}
	t.Cells[ri][ci] = v
}

// Get returns a value by row and column name.
func (t *Table) Get(row, col string) float64 {
	ri := indexOf(t.Rows, row)
	ci := indexOf(t.Cols, col)
	if ri < 0 || ci < 0 {
		panic(fmt.Sprintf("stats: unknown table cell (%q, %q)", row, col))
	}
	return t.Cells[ri][ci]
}

// AddGeoMeanRow appends a "geomean" row computed over the current rows.
// Rows whose cell is missing (NaN) or non-positive are skipped — the mean
// covers the surviving benchmarks — and a warning names the dropped rows
// so a partial summary is never mistaken for a complete one.
func (t *Table) AddGeoMeanRow() {
	row := make([]float64, len(t.Cols))
	for c := range t.Cols {
		col := make([]float64, 0, len(t.Rows))
		var dropped []string
		for r := range t.Rows {
			v := t.Cells[r][c]
			if v <= 0 || math.IsNaN(v) {
				dropped = append(dropped, t.Rows[r])
				continue
			}
			col = append(col, v)
		}
		if len(dropped) > 0 {
			log.Printf("stats: %s: geomean for %q computed without rows %v (missing or non-positive cells)",
				t.Title, t.Cols[c], dropped)
		}
		row[c] = GeoMean(col)
	}
	t.Rows = append(t.Rows, "geomean")
	t.Cells = append(t.Cells, row)
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	w := 10
	for _, c := range t.Cols {
		if len(c)+2 > w {
			w = len(c) + 2
		}
	}
	rw := len(t.RowName)
	for _, r := range t.Rows {
		if len(r) > rw {
			rw = len(r)
		}
	}
	fmt.Fprintf(&b, "%-*s", rw+2, t.RowName)
	for _, c := range t.Cols {
		fmt.Fprintf(&b, "%*s", w, c)
	}
	b.WriteByte('\n')
	format := t.Format
	if format == "" {
		format = "%8.3f"
	}
	for i, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", rw+2, r)
		for j := range t.Cols {
			cell := fmt.Sprintf(format, t.Cells[i][j])
			if math.IsNaN(t.Cells[i][j]) {
				cell = "-" // missing cell (failed or skipped run)
			}
			fmt.Fprintf(&b, "%*s", w, cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
