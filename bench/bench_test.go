package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/litmus"
	"repro/internal/workload"
)

// TestMain lets the test binary serve as its own set-up probe, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(probeEnv) != "" {
		os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestDeclarationsMatchBenchmarkFile pins the code's workload and metric
// declarations to BENCHMARK.json.
func TestDeclarationsMatchBenchmarkFile(t *testing.T) {
	b := loadBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	assertSameSet(t, "workloads", names, want)

	seen := map[string]bool{}
	check := func(kind string, decls []metricDecl, name, unit, better string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("%s metric %q: malformed or repeated name", kind, name)
		}
		seen[name] = true
		for _, d := range decls {
			if d.name == name {
				if d.unit != unit || d.better != better {
					t.Errorf("%s metric %s: file says %s/%s, code says %s/%s", kind, name, unit, better, d.unit, d.better)
				}
				return
			}
		}
		t.Errorf("%s metric %s is in BENCHMARK.json but not in the code", kind, name)
	}
	for _, m := range b.EndToEnd {
		check("end-to-end", endToEnd, m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range b.PerLayer {
		check("per-layer", perLayer, m.Name, m.Unit, m.Better)
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json declares %d+%d metrics, the code %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
}

// tinyWorkloads are the benchmark's workloads at a test-only size: the
// same code paths, a few hundred milliseconds each.
func tinyWorkloads() map[string]workloadRunner {
	return map[string]workloadRunner{
		"fig6-suite":      suiteWorkload{opts: experiments.Options{Threads: 2, SimScale: 4000, InitScale: 400}, workers: 2},
		"footprint-build": suiteWorkload{opts: experiments.Options{Threads: 2, SimScale: 8000, InitScale: 200}, workers: 2},
		"crash-sweep": crashWorkload{
			benches: []workload.Kind{workload.Queue}, schemes: []core.Scheme{core.PMEM, core.Proteus},
			params: workload.Params{Threads: 2, InitOps: 32, SimOps: 6, SSItems: 64, SSStrSize: 64, ListNodes: 4, ListElems: 8},
			sweep:  4, rand: 2, workers: 2,
		},
		"litmus-sweep": litmusWorkload{programs: litmus.Curated()[:2], workers: 2},
		"serve-mixed": serveWorkload{
			benches: []workload.Kind{workload.Queue, workload.BTree}, schemes: []core.Scheme{core.PMEM, core.Proteus},
			mems: []string{"nvm-fast"}, wseeds: 1, threads: 2, simOps: 8, initOps: 16,
			requests: 24, restartEvery: 8, clients: 2, zipf: 1.2, workers: 2,
		},
	}
}

// TestWorkloadsSmoke runs every workload at its tiny size, untraced and
// traced: every output check must pass, the re-enactments must reproduce
// the program's results exactly, and the emitted metric names must be the
// declared ones.
func TestWorkloadsSmoke(t *testing.T) {
	b := loadBenchmarkFile(t)
	var e2e, layers []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range b.PerLayer {
		layers = append(layers, m.Name)
	}
	tiny := tinyWorkloads()
	if len(tiny) != len(workloads) {
		t.Fatalf("%d tiny workloads for %d workloads", len(tiny), len(workloads))
	}
	ctx := context.Background()
	for _, wl := range workloads {
		w := tiny[wl.name]
		t.Run(wl.name, func(t *testing.T) {
			e := &env{seed: 7, workdir: t.TempDir()}
			rec, err := measure(ctx, wl.name, w, e, 0)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Failed != 0 || rec.Attempted == 0 {
				t.Fatalf("untraced: %d of %d failed: %v", rec.Failed, rec.Attempted, rec.Failures)
			}
			assertSameSet(t, "end-to-end metrics", keys(rec.Metrics), e2e)
			for name, v := range rec.Metrics {
				if v.Value <= 0 {
					t.Errorf("end-to-end metric %s reads %v, want > 0", name, v.Value)
				}
			}

			rec, err = traced(ctx, w, e, filepath.Join(t.TempDir(), "spans.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			if rec.Failed != 0 || rec.Attempted == 0 {
				t.Fatalf("traced: %d of %d failed: %v", rec.Failed, rec.Attempted, rec.Failures)
			}
			assertSameSet(t, "per-layer metrics", keys(rec.Metrics), layers)
		})
	}
}

// TestCrashReenactmentJudgesLikeTheCampaign checks the benchmark's copy of
// the campaign's expectation matrix on a sweep that produces every
// outcome class but failed.
func TestCrashReenactmentJudgesLikeTheCampaign(t *testing.T) {
	w := tinyWorkloads()["crash-sweep"].(crashWorkload)
	w.schemes = []core.Scheme{core.PMEM, core.ATOM, core.Proteus}
	res, err := w.trace(context.Background(), &env{seed: 3}, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.failures) != 0 {
		t.Fatal(res.failures)
	}
	for _, m := range []string{"crashcampaign.verified", "crashcampaign.detected", "crashcampaign.vulnerable"} {
		if res.metrics[m] == 0 {
			t.Errorf("%s = 0: the sweep does not exercise that outcome", m)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	faster := make([]float64, len(base))
	slower := make([]float64, len(base))
	for i, b := range base {
		faster[i], slower[i] = b*0.8, b*1.2
	}
	if v := verdict(base, faster, false, 0.1); v.regression || v.text[:4] != "gain" {
		t.Errorf("20%% faster: %s", v.text)
	}
	if v := verdict(base, slower, false, 0.1); !v.regression {
		t.Errorf("20%% slower: %s", v.text)
	}
	if v := verdict(base, base, false, 0.1); v.regression || v.text != "no change" {
		t.Errorf("same runs: %s", v.text)
	}
	if v := verdict(base[:5], slower[:5], false, 0.1); v.regression {
		t.Errorf("five pairs decide nothing: %s", v.text)
	}
}

func assertSameSet(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("%s: got %v, want %v", what, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: got %v, want %v", what, got, want)
		}
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
