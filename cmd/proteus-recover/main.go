// Command proteus-recover demonstrates the crash-injection and recovery
// machinery and replays reproducer artifacts.
//
// By default it runs a workload under a failure-safe scheme, cuts power
// at a chosen point — optionally through a fault model (torn line writes,
// ADR loss, log corruption) — extracts the persistent image, runs
// recovery, and verifies transaction atomicity against the oracle. On an
// oracle failure it prints a per-thread mismatch summary and exits
// nonzero. A detected (and reported) log corruption exits zero: refusing
// a damaged log is the correct recovery outcome.
//
// With -replay it takes a reproducer directory written by proteus-crash
// or proteus-litmus (-artifacts), rebuilds its target (a benchmark or a
// litmus program), re-simulates it to the crash cycle, checks that the
// rebuilt crash image is byte-identical to the stored one, and classifies
// it again. It exits 0 when the recorded outcome reproduces, 2 when it
// does not, and 1 on error.
//
// Examples:
//
//	proteus-recover -bench RT -scheme Proteus -at 0.6
//	proteus-recover -bench QE -scheme PMEM -at-cycle 4242 -fault torn
//	proteus-recover -bench HM -scheme ATOM -fault adrloss
//	proteus-recover -replay repro/rt-proteus-clean-c4265
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/crashcampaign"
	"repro/internal/litmus"
	"repro/internal/nvm"
	"repro/internal/recovery"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		benchName  = flag.String("bench", "RT", "benchmark: QE, HM, SS, AT, BT, RT")
		schemeName = flag.String("scheme", "Proteus", "failure-safe scheme: PMEM, PMEM+pcommit, ATOM, Proteus, Proteus+NoLWR")
		at         = flag.Float64("at", 0.5, "crash point as a fraction of the full run")
		atCycle    = flag.Int64("at-cycle", -1, "crash at this exact cycle (overrides -at)")
		faultName  = flag.String("fault", "", "fault model at the crash: torn, adrloss, corrupt (default clean)")
		faultSeed  = flag.Uint64("fault-seed", 0, "per-line fault randomness seed (0 derives one from the workload seed)")
		faultMask  = flag.String("fault-mask", "", "comma-separated target indexes the fault is limited to (default all)")
		threads    = flag.Int("threads", 2, "worker threads / cores")
		simOps     = flag.Int("simops", 64, "timed operations per thread")
		seed       = flag.Int64("seed", 42, "workload seed")
		replayDir  = flag.String("replay", "", "replay a reproducer directory (overrides every other flag); exit 0 reproduced, 2 not reproduced")
		traceOut   = flag.String("trace", "", "write an epoch-sampled JSONL trace of the full (pre-crash) run to this file")
		traceEpoch = flag.Uint64("trace-epoch", trace.DefaultEpoch, "cycles between trace samples")
	)
	flag.Parse()

	if *replayDir != "" {
		code, err := replay(os.Stdout, *replayDir)
		exitOn(err)
		os.Exit(code)
	}

	kind, err := workload.KindByName(*benchName)
	exitOn(err)
	scheme, err := core.SchemeByName(*schemeName)
	exitOn(err)
	if !scheme.FailureSafe() {
		exitOn(fmt.Errorf("scheme %q is not a failure-safe scheme", *schemeName))
	}
	var fault crashcampaign.Fault
	exitOn(fault.UnmarshalText([]byte(cmp.Or(*faultName, "clean"))))
	mask, err := parseMask(*faultMask)
	exitOn(err)

	p := kind.DefaultParams(1)
	p.Threads = *threads
	p.SimOps = *simOps
	p.InitOps /= 10
	p.Seed = *seed

	fmt.Printf("building %v (%d threads, %d txns each)...\n", kind, p.Threads, p.SimOps)
	tgt, wl, err := benchTarget(kind, scheme, p)
	exitOn(err)

	// Learn the full run length. The optional trace records this run, so
	// the timeline shows the queue state around any candidate crash point.
	full, err := tgt.NewSystem()
	exitOn(err)
	var tr *trace.Tracer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		exitOn(err)
		meta := trace.Meta{Label: fmt.Sprintf("%v/%v/recover", kind, scheme), Fingerprint: tgt.Sim.Fingerprint(), Cores: tgt.Sim.Cores}
		tr, err = trace.NewJSONLTracer(f, meta, *traceEpoch)
		exitOn(err)
		full.SetTracer(tr)
	}
	_, err = full.Run(0)
	exitOn(err)
	if tr != nil {
		exitOn(tr.Close())
	}
	total := full.Cycle()
	full.Release()
	crashAt := uint64(float64(total) * *at)
	if *atCycle >= 0 {
		crashAt = uint64(*atCycle)
	}
	fseed := *faultSeed
	if fseed == 0 {
		fseed = uint64(*seed)*0x9E3779B9 + crashAt
	}
	fmt.Printf("full run: %d cycles; cutting power at cycle %d (fault %s)\n", total, crashAt, fault)

	sys, err := tgt.SystemAt(crashAt)
	exitOn(err)
	inj := crashcampaign.Injection{Fault: fault, Cycle: crashAt, Seed: fseed, Mask: mask}
	img := inj.Apply(sys, p.Threads)
	committed := sys.CommittedCounts()
	sys.Release()
	fmt.Printf("at crash: committed transactions per thread: %v\n", committed)
	os.Exit(recoverAndVerify(img, committed, scheme, recovery.NewOracle(wl)))
}

// benchTarget builds the benchmark and binds it to the scheme on the
// default machine, judged by the recovery oracle.
func benchTarget(kind workload.Kind, scheme core.Scheme, p workload.Params) (*crashcampaign.Target, *workload.Workload, error) {
	wl, err := workload.Build(kind, p)
	if err != nil {
		return nil, nil, err
	}
	sim := config.Default()
	sim.Cores = p.Threads
	tgt, err := crashcampaign.NewTarget(kind.Abbrev(), scheme, sim, wl, crashcampaign.OracleExpectation(wl, scheme))
	return tgt, wl, err
}

// artifactTarget rebuilds the target an artifact's meta names: a
// benchmark under the recovery oracle, or a litmus program under its
// scheme's ordering axioms.
func artifactTarget(m *crashcampaign.ArtifactMeta) (*crashcampaign.Target, error) {
	if kind, err := workload.KindByName(m.Source); err == nil {
		tgt, _, err := benchTarget(kind, m.Scheme, m.Params)
		return tgt, err
	}
	prog, err := litmus.Parse(m.Source)
	if err != nil {
		return nil, fmt.Errorf("artifact source %q is neither a benchmark nor a litmus program", m.Source)
	}
	compiled, err := prog.Compile()
	if err != nil {
		return nil, err
	}
	return compiled.Target(m.Scheme)
}

// replay replays the reproducer in dir, reports on w, and returns the
// process exit code: 0 when the recorded outcome reproduces on a
// byte-identical crash image, 2 when it does not.
func replay(w io.Writer, dir string) (int, error) {
	a, err := crashcampaign.LoadArtifact(dir)
	if err != nil {
		return 1, err
	}
	m := &a.Meta
	tgt, err := artifactTarget(m)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(w, "replaying %s/%s %s@%d (seed %d)\n", m.Source, m.Scheme, m.Fault, m.Cycle, m.Seed)
	if fp := tgt.Sim.Fingerprint(); fp != m.ConfigFingerprint {
		fmt.Fprintf(w, "warning: config fingerprint %s differs from recorded %s; the replay may diverge\n", fp, m.ConfigFingerprint)
	}
	res, err := tgt.Replay(a)
	if err != nil {
		return 1, err
	}
	if res.ImageMatches {
		fmt.Fprintln(w, "rebuilt crash image matches the stored artifact image")
	} else {
		fmt.Fprintln(w, "rebuilt crash image DIFFERS from the stored artifact image")
	}
	fmt.Fprintf(w, "committed %v\nrecorded  %s\nreplayed  %s\n", res.Committed, m.Outcome, res.Outcome)
	if res.Detail != "" {
		fmt.Fprintf(w, "detail    %s\n", res.Detail)
	}
	if !res.Reproduced {
		fmt.Fprintln(w, "NOT reproduced")
		return 2, nil
	}
	fmt.Fprintln(w, "reproduced")
	return 0, nil
}

// recoverAndVerify runs recovery and the oracle over a crash image and
// reports the outcome with a per-thread summary; the return value is the
// process exit code.
func recoverAndVerify(img *nvm.Store, committed []int, scheme core.Scheme, oracle *recovery.Oracle) int {
	rec, err := recovery.Recover(img, scheme, len(committed))
	if err != nil {
		if recovery.IsDetectedCorruption(err) {
			fmt.Printf("DETECTED: recovery refused the image: %v\n", err)
			fmt.Println("(refusing a damaged log is the correct outcome; nothing was silently applied)")
			return 0
		}
		fmt.Fprintln(os.Stderr, "proteus-recover: recovery error:", err)
		return 1
	}
	for t, rb := range rec.RolledBack {
		if len(rb) > 0 {
			fmt.Printf("recovery: thread %d rolled back transaction(s) %v\n", t, rb)
		}
	}
	fmt.Printf("recovery applied %d undo entries\n", rec.EntriesApplied)

	statuses := oracle.Report(img, committed, scheme == core.PMEM || scheme == core.PMEMPcommit)
	bad := 0
	for _, st := range statuses {
		if !st.OK() {
			bad++
		}
	}
	if bad == 0 {
		matched := make([]int, len(statuses))
		for i, st := range statuses {
			matched[i] = st.Matched
		}
		fmt.Printf("VERIFIED: recovered state matches transaction prefixes %v — every transaction atomic, no committed transaction lost\n", matched)
		return 0
	}
	fmt.Printf("FAILED: %d of %d threads do not match any transaction prefix:\n", bad, len(statuses))
	for _, st := range statuses {
		if st.OK() {
			fmt.Printf("  thread %d: ok (matched prefix %d of %d committed)\n", st.Thread, st.Matched, st.Committed)
		} else {
			fmt.Printf("  thread %d: MISMATCH (committed %d): %s\n", st.Thread, st.Committed, st.Mismatch)
		}
	}
	return 1
}

func parseMask(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad fault-mask entry %q: %w", part, err)
		}
		out = append(out, n)
	}
	return out, nil
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "proteus-recover:", err)
		os.Exit(1)
	}
}
