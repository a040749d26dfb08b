package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json the comparison reads.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// minPairs is the fewest base/head run pairs a verdict rests on.
const minPairs = 10

// compare applies the benchmark's comparison rule to the untraced runs of
// two results files, pairing the i-th base run of a workload with its
// i-th head run (run them alternately). Per workload and end-to-end
// metric it reports each side's median and quartiles, and:
//
//   - unresolved when the base's spread (quartile distance over median)
//     exceeds the metric's bound, unless every head run beats every base
//     run;
//   - regression when the head median is worse than the base median by
//     more than the bound;
//   - gain when the head wins at least nine tenths of the pairs and the
//     medians differ by more than the base's quartile distance;
//   - otherwise no change.
//
// It reports whether any metric regressed.
func compare(specPath, basePath, headPath string, w io.Writer) (bool, error) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	base, err := readRecords(basePath)
	if err != nil {
		return false, err
	}
	head, err := readRecords(headPath)
	if err != nil {
		return false, err
	}
	if a, b := machine(base[0].Meta), machine(head[0].Meta); a != b {
		fmt.Fprintf(w, "warning: base ran on %s, head on %s\n", a, b)
	}
	baseVals, headVals := series(base), series(head)
	var names []string
	for name := range baseVals {
		names = append(names, name)
	}
	sort.Strings(names)
	regressed := false
	fmt.Fprintf(w, "%-16s %-12s %28s %28s %7s  %s\n", "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "wins", "verdict")
	for _, wl := range names {
		for _, m := range sp.EndToEnd {
			b, h := baseVals[wl][m.Name], headVals[wl][m.Name]
			n := min(len(b), len(h))
			if n == 0 {
				continue
			}
			v := verdict(b[:n], h[:n], m.Better == "higher", m.Bound)
			if v.regression {
				regressed = true
			}
			fmt.Fprintf(w, "%-16s %-12s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] %3d/%-3d  %s\n",
				wl, m.Name, v.baseMed, v.baseQ1, v.baseQ3, v.headMed, v.headQ1, v.headQ3, v.wins, n, v.text)
		}
	}
	return regressed, nil
}

// machine summarizes what a run measured on.
func machine(m runMeta) string {
	return fmt.Sprintf("%q nproc=%d GOMAXPROCS=%d %s", m.CPUModel, m.NumCPU, m.GOMAXPROCS, m.GoVersion)
}

// series collects each untraced run's end-to-end values by workload and
// metric, in file order.
func series(recs []record) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range recs {
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, mv := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], mv.Value)
		}
	}
	return out
}

type comparison struct {
	baseMed, baseQ1, baseQ3 float64
	headMed, headQ1, headQ3 float64
	wins                    int
	regression              bool
	text                    string
}

func verdict(base, head []float64, higherBetter bool, bound float64) comparison {
	c := comparison{baseMed: median(base), headMed: median(head)}
	c.baseQ1, c.baseQ3 = quartiles(base)
	c.headQ1, c.headQ3 = quartiles(head)
	better := func(h, b float64) bool {
		if higherBetter {
			return h > b
		}
		return h < b
	}
	for i := range base {
		if better(head[i], base[i]) {
			c.wins++
		}
	}
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	// worse is the head's relative change in the losing direction.
	worse := (c.headMed - c.baseMed) / c.baseMed
	if higherBetter {
		worse = -worse
	}
	spread := (c.baseQ3 - c.baseQ1) / c.baseMed
	n := len(base)
	switch {
	case n < minPairs:
		c.text = fmt.Sprintf("too few pairs (%d < %d)", n, minPairs)
	case spread > bound && allBetter:
		c.text = "gain (every head run beats every base run)"
	case spread > bound:
		c.text = fmt.Sprintf("unresolved (spread %.3g > bound %.3g)", spread, bound)
	case worse > bound:
		c.regression = true
		c.text = fmt.Sprintf("REGRESSION (%.1f%% worse, bound %.1f%%)", 100*worse, 100*bound)
	case c.wins*10 >= 9*n && better(c.headMed, c.baseMed) && math.Abs(c.headMed-c.baseMed) > c.baseQ3-c.baseQ1:
		c.text = fmt.Sprintf("gain (%.1f%%)", -100*worse)
	default:
		c.text = "no change"
	}
	return c
}
