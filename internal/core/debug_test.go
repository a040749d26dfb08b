package core_test

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/logging"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TestDebugBreakdown prints a per-scheme breakdown used while calibrating
// the model; it never fails.
func TestDebugBreakdown(t *testing.T) {
	p := workload.Params{Threads: 2, InitOps: 64, SimOps: 32, Seed: 7}
	w, err := workload.Build(workload.Queue, p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	cfg.Cores = p.Threads
	for _, scheme := range core.Schemes {
		traces, _ := logging.Generate(w, scheme, cfg)
		sys, _ := core.NewSystem(cfg, scheme, traces, w.InitImage)
		rep, err := sys.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		c := rep.CoreStat[0]
		tstats := traces[0].Summarize()
		t.Logf("%-14s cyc=%7d ops/txn=%4d stalls[rob=%d lq=%d sq=%d logq=%d] sf=%d clwb=%d wpqFull=%d coal=%d lpqDrop=%d writes[data=%d log=%d trunc=%d]",
			scheme, rep.Cycles, traces[0].Len()/32,
			c.StallCycles[stats.StallROB], c.StallCycles[stats.StallLoadQ], c.StallCycles[stats.StallStoreQ], c.StallCycles[stats.StallLogQ],
			c.Sfences, c.Clwbs, rep.MemStat.WPQFullStall, rep.MemStat.WPQCoalesced, rep.MemStat.LPQDropped,
			rep.MemStat.Writes[stats.WriteData], rep.MemStat.Writes[stats.WriteLog], rep.MemStat.Writes[stats.WriteTruncate])
		var residency, issueDelay, service float64
		if n := float64(rep.MemStat.WPQDrained); n > 0 {
			residency = float64(rep.MemStat.WPQResidency) / n
			issueDelay = float64(rep.MemStat.WPQIssueDelay) / n
			service = float64(rep.MemStat.WPQService) / n
		}
		t.Logf("    wpqResidency=%.0f issueDelay=%.0f service=%.0f bankBusy=%d rowHit=%d rowMiss=%d reads=%d", residency, issueDelay, service, rep.MemStat.BankBusy, rep.MemStat.RowBufferHits, rep.MemStat.RowBufferMiss, rep.MemStat.Reads)
		_ = tstats
	}
}
