package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/provenance"
)

// runMeta records what a run measured on, so two results files can be
// checked to compare like with like.
type runMeta struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
	Dirty      bool   `json:"dirty"`
	Seed       int64  `json:"seed"`
	Reps       int    `json:"reps"`
	StartUTC   string `json:"start_utc"`
}

func newRunMeta(seed int64, reps int, start time.Time) runMeta {
	rev := provenance.Revision()
	return runMeta{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Revision:   strings.TrimSuffix(rev, "-dirty"),
		Dirty:      strings.HasSuffix(rev, "-dirty"),
		Seed:       seed,
		Reps:       reps,
		StartUTC:   start.UTC().Format(time.RFC3339),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
