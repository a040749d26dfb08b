// Command proteus-recover demonstrates the crash-injection and recovery
// machinery and replays reproducer artifacts.
//
// By default it runs a workload under a failure-safe scheme, cuts power
// at a chosen point — optionally through a fault model (torn line writes,
// ADR loss, log corruption) — extracts the persistent image, runs
// recovery, and judges the result exactly as a proteus-crash campaign
// judges the same injection: the fault pattern derives from -seed as the
// campaign's does from its seed, and the outcome is one of the campaign's
// classes (verified, detected, vulnerable, failed). It prints the class,
// its detail and, unless the outcome is detected, each thread's match
// against the oracle's transaction prefixes. It exits nonzero only on a
// failed outcome: a detected corruption (refusing a damaged log) and a
// vulnerable one (a fault outside the scheme's guarantees) are the
// scheme behaving as specified.
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
		faultSeed  = flag.Uint64("fault-seed", 0, "per-line fault randomness seed (0 derives the campaign's injection seed from -seed)")
		faultMask  = flag.String("fault-mask", "", "comma-separated target indexes the fault is limited to (default all)")
		threads    = flag.Int("threads", 2, "worker threads / cores")
		simOps     = flag.Int("simops", 64, "timed operations per thread")
		seed       = flag.Int64("seed", 42, "workload and campaign seed")
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

	code, err := crashRun{kind: kind, scheme: scheme, params: p, fault: fault, at: *at, atCycle: *atCycle,
		faultSeed: *faultSeed, mask: mask, traceOut: *traceOut, traceEpoch: *traceEpoch}.run(os.Stdout)
	exitOn(err)
	os.Exit(code)
}

// crashRun is one manual crash: the benchmark and its shape, the scheme,
// and where and through which fault power is cut.
type crashRun struct {
	kind       workload.Kind
	scheme     core.Scheme
	params     workload.Params
	fault      crashcampaign.Fault
	at         float64 // crash point as a fraction of the full run
	atCycle    int64   // overrides at when not negative
	faultSeed  uint64  // overrides the injection seed when nonzero
	mask       []int
	traceOut   string
	traceEpoch uint64
}

// run performs the crash, reports on w and returns the process exit
// code: 1 on a failed outcome, else 0.
func (r crashRun) run(w io.Writer) (int, error) {
	fmt.Fprintf(w, "building %v (%d threads, %d txns each)...\n", r.kind, r.params.Threads, r.params.SimOps)
	tgt, wl, err := benchTarget(r.kind, r.scheme, r.params)
	if err != nil {
		return 1, err
	}
	tgt.Seed = r.params.Seed

	// Learn the full run length. The optional trace records this run, so
	// the timeline shows the queue state around any candidate crash point.
	var tr *trace.Tracer
	if r.traceOut != "" {
		f, err := os.Create(r.traceOut)
		if err != nil {
			return 1, err
		}
		defer f.Close() // for the error paths; tr.Close closes it
		meta := trace.Meta{Label: fmt.Sprintf("%v/%v/recover", r.kind, r.scheme), Fingerprint: tgt.Sim.Fingerprint(), Cores: tgt.Sim.Cores}
		if tr, err = trace.NewJSONLTracer(f, meta, r.traceEpoch); err != nil {
			return 1, err
		}
	}
	full, err := tgt.NewSystem()
	if err != nil {
		return 1, err
	}
	full.SetTracer(tr) // nil leaves tracing off
	_, err = full.Run(0)
	total := full.Cycle()
	full.Release()
	if err != nil {
		return 1, err
	}
	if tr != nil {
		if err := tr.Close(); err != nil {
			return 1, err
		}
	}
	crashAt := uint64(float64(total) * r.at)
	if r.atCycle >= 0 {
		crashAt = uint64(r.atCycle)
	}
	inj := tgt.Injection(r.fault, crashAt)
	inj.Mask = r.mask
	if r.faultSeed != 0 {
		inj.Seed = r.faultSeed
	}
	fmt.Fprintf(w, "full run: %d cycles; cutting power at cycle %d (fault %s)\n", total, crashAt, r.fault)

	sys, err := tgt.SystemAt(crashAt)
	if err != nil {
		return 1, err
	}
	defer sys.Release()
	img := inj.Apply(sys, tgt.Sim.Cores)
	committed := sys.CommittedCounts()
	fmt.Fprintf(w, "at crash: committed transactions per thread: %v\n", committed)

	out, detail := tgt.Classify(img, r.fault, committed)
	fmt.Fprintf(w, "outcome   %s\n", out)
	if detail != "" {
		fmt.Fprintf(w, "detail    %s\n", detail)
	}
	if out != crashcampaign.OutcomeDetected {
		sw := r.scheme == core.PMEM || r.scheme == core.PMEMPcommit
		for _, st := range recovery.NewOracle(wl).Report(img, committed, sw) {
			if st.OK() {
				fmt.Fprintf(w, "thread %d: ok (matched prefix %d of %d committed)\n", st.Thread, st.Matched, st.Committed)
			} else {
				fmt.Fprintf(w, "thread %d: MISMATCH (committed %d): %s\n", st.Thread, st.Committed, st.Mismatch)
			}
		}
	}
	if out == crashcampaign.OutcomeFailed {
		return 1, nil
	}
	return 0, nil
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
	return crashcampaign.NewTarget(kind.Abbrev(), scheme, sim, wl, crashcampaign.OracleExpectation(wl, scheme)), wl, nil
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
	return compiled.Target(m.Scheme), nil
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
