// Command bench is the repository's benchmark. It runs one workload for a
// fixed time — or every workload, each in a child process, one after
// another — checks that the program's outputs are correct, and prints
// every metric by name with its unit. A traced run (-trace 1) reports the
// per-layer breakdown instead and writes its spans as JSONL. See
// README.md for the workloads, the metrics and the comparison rule.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// probeEnv, set in a child's environment, makes the run a set-up probe: it
// sets up one rep of its workload, prints a line and exits. The time from
// starting the child to that line is one sample of setup_s.
const probeEnv = "PROTEUS_BENCH_SETUP_PROBE"

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	spans    string
	workdir  string
	spec     string
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "all", "workload to run, or all (each in its own child process)")
	fs.Int64Var(&o.seed, "seed", 42, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 20, "how long to measure; reps continue while another fits")
	fs.IntVar(&o.trace, "trace", 0, "1: traced run reporting per-layer metrics instead of end-to-end ones")
	fs.StringVar(&o.out, "out", ".bench_build/results.jsonl", "results file; every run appends one JSON line")
	fs.StringVar(&o.spans, "spans", ".bench_build/spans", "directory for the traced runs' span JSONL")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/work", "scratch directory for on-disk stores")
	fs.StringVar(&o.spec, "spec", "BENCHMARK.json", "benchmark declaration, read by -compare for bounds")
	compareMode := fs.Bool("compare", false, "compare two results files: -compare base.jsonl head.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compareMode {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two results files: base and head")
			return 2
		}
		regressed, err := compare(o.spec, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if regressed {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || (o.trace != 0 && o.trace != 1) || o.seconds < 0 {
		fs.Usage()
		return 2
	}
	if o.workload == "all" {
		return runAll(ctx, o, stdout, stderr)
	}
	for _, wl := range workloads {
		if wl.name != o.workload {
			continue
		}
		if os.Getenv(probeEnv) != "" {
			return probeSetup(ctx, wl.w, &env{seed: o.seed, workdir: o.workdir}, stdout, stderr)
		}
		return runOne(ctx, o, wl.name, wl.w, stdout, stderr)
	}
	fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
	return 2
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a single-workload run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is what a run appends to the results file.
type record struct {
	Meta     runMeta `json:"meta"`
	Workload string  `json:"workload"`
	Trace    bool    `json:"trace"`
	resultLine
	Failures []string             `json:"failures,omitempty"`
	Samples  map[string][]float64 `json:"samples,omitempty"`
}

func runOne(ctx context.Context, o options, name string, w workloadRunner, stdout, stderr io.Writer) int {
	start := time.Now()
	e := &env{seed: o.seed, workdir: o.workdir}
	var rec *record
	var err error
	if o.trace == 1 {
		rec, err = traced(ctx, w, e, filepath.Join(o.spans, name+".jsonl"))
	} else {
		rec, err = measure(ctx, name, w, e, time.Duration(o.seconds*float64(time.Second)))
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	rec.Meta = newRunMeta(o.seed, rec.Meta.Reps, start)
	rec.Workload, rec.Trace = name, o.trace == 1
	rec.Correct = rec.Failed == 0
	for _, f := range rec.Failures {
		fmt.Fprintf(stdout, "FAILED %s: %s\n", name, f)
	}
	if err := appendRecord(o.out, rec); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rec.resultLine)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// minReps is the fewest reps a run makes, so the check that every rep's
// output repeats the first's always runs.
const minReps = 2

// measure runs reps until the next one would overrun the budget (at least
// minReps), each on freshly set-up state, and reports the end-to-end
// metrics as medians. After each rep it times the named workload's set-up
// in a fresh process; spreading the probes over the run keeps them clear
// of the machine's work at its start, such as reclaiming the memory of the
// process that ran before.
func measure(ctx context.Context, name string, w workloadRunner, e *env, budget time.Duration) (*record, error) {
	var setups, walls, rates, allocs []float64
	rec := &record{}
	var first []byte
	start := time.Now()
	for len(walls) < minReps || time.Since(start)+time.Duration(mean(walls)*float64(time.Second)) <= budget {
		runtime.GC() // start every rep from a heap without the last rep's garbage
		r, err := w.setup(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		a0 := totalAlloc()
		t0 := time.Now()
		err = r.run(ctx)
		wall := time.Since(t0)
		alloc := totalAlloc() - a0
		if err != nil {
			r.close()
			return nil, fmt.Errorf("rep %d: %w", len(walls)+1, err)
		}
		out := r.check()
		if err := r.close(); err != nil {
			return nil, err
		}
		rec.Attempted += out.ops
		rec.Failed += out.failed
		rec.Failures = append(rec.Failures, out.failures...)
		if first == nil {
			first = out.output
		} else if !bytes.Equal(first, out.output) {
			rec.Failed++
			rec.Failures = append(rec.Failures, fmt.Sprintf("rep %d output differs from rep 1's", len(walls)+1))
		}
		walls = append(walls, wall.Seconds())
		rates = append(rates, float64(out.ops)/wall.Seconds())
		allocs = append(allocs, mb(alloc))
		d, err := setupTime(ctx, name, e)
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	rec.Meta.Reps = len(walls)
	rec.Samples = map[string][]float64{"setup_s": setups, "wall_s": walls, "ops_per_s": rates, "alloc_mb": allocs}
	values := map[string]float64{
		"setup_s":     median(setups),
		"wall_s":      median(walls),
		"ops_per_s":   median(rates),
		"alloc_mb":    median(allocs),
		"peak_rss_mb": peakRSSMB(),
	}
	var err error
	rec.Metrics, err = declared(endToEnd, values)
	return rec, err
}

// setupTime starts this program afresh as a set-up probe for the named
// workload and returns the time from starting it to its ready line: process
// start, package initialisation and one rep's set-up, everything a user
// waits for before the first timed operation.
func setupTime(ctx context.Context, name string, e *env) (time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(ctx, self, "--workload", name,
		"--seed", strconv.FormatInt(e.seed, 10), "--workdir", e.workdir)
	cmd.Env = append(os.Environ(), probeEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	_, rerr := bufio.NewReader(out).ReadString('\n')
	d := time.Since(start)
	if err := cmd.Wait(); err != nil {
		return 0, err
	}
	if rerr != nil {
		return 0, fmt.Errorf("reading the ready line: %w", rerr)
	}
	return d, nil
}

// probeSetup is the child side of setupTime.
func probeSetup(ctx context.Context, w workloadRunner, e *env, stdout, stderr io.Writer) int {
	r, err := w.setup(ctx, e)
	if err != nil {
		fmt.Fprintln(stderr, "bench: set-up:", err)
		return 1
	}
	fmt.Fprintln(stdout, "ready")
	if err := r.close(); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// traced runs the workload's traced passes, writes the spans and reports
// the per-layer metrics.
func traced(ctx context.Context, w workloadRunner, e *env, spansPath string) (*record, error) {
	tr := newTracer()
	res, err := w.trace(ctx, e, tr)
	if err != nil {
		return nil, err
	}
	res.metrics["trace.spans"] = float64(tr.mark())
	if err := tr.writeJSONL(spansPath); err != nil {
		return nil, err
	}
	rec := &record{Failures: res.failures}
	rec.Meta.Reps = 1
	rec.Attempted, rec.Failed = res.attempted, len(res.failures)
	rec.Metrics, err = declared(perLayer, res.metrics)
	return rec, err
}

// declared attaches units to values, in the declared set: a name outside
// it is an error, and a declared name with no value reads 0.
func declared(decls []metricDecl, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(decls))
	for _, d := range decls {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return out, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1e3 // Linux reports kilobytes
}

func appendRecord(path string, rec *record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload in its own child process, one after
// another, and prints each metric as "workload metric value unit".
func runAll(ctx context.Context, o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	status := 0
	for _, wl := range workloads {
		cmd := exec.CommandContext(ctx, self,
			"--workload", wl.name, "--seed", strconv.FormatInt(o.seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", strconv.Itoa(o.trace),
			"--out", o.out, "--spans", o.spans, "--workdir", o.workdir)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, stderr
		err := cmd.Run()
		line, rest := lastLine(out.Bytes())
		stdout.Write(rest)
		var res resultLine
		if err == nil {
			err = json.Unmarshal(line, &res)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", wl.name, err)
			status = 1
			continue
		}
		decls := endToEnd
		if o.trace == 1 {
			decls = perLayer
		}
		for _, d := range decls {
			fmt.Fprintf(stdout, "%s %s %.6g %s\n", wl.name, d.name, res.Metrics[d.name].Value, d.unit)
		}
		if !res.Correct {
			fmt.Fprintf(stdout, "%s FAILED: %d of %d checks or items failed\n", wl.name, res.Failed, res.Attempted)
			status = 1
		}
	}
	return status
}

// lastLine splits a child's output into its final line and the rest.
func lastLine(b []byte) (last, rest []byte) {
	b = bytes.TrimRight(b, "\n")
	i := bytes.LastIndexByte(b, '\n')
	if i < 0 {
		return b, nil
	}
	return b[i+1:], b[:i+1]
}

// readRecords loads a results file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) == 0 {
		return nil, errors.New(path + ": no runs")
	}
	return recs, nil
}
