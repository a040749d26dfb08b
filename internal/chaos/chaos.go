// Package chaos is the deterministic fault injector behind the
// serve/cluster/resultstore robustness campaign. It owns one seeded
// random stream and three injection surfaces:
//
//   - FS wraps resultstore.FS with disk faults: torn (short) writes the
//     kernel "acknowledged", single bit flips on read, ENOSPC, fsync
//     failures, and crash-before-rename (the publish rename never
//     lands).
//   - RoundTripper wraps http.RoundTripper with network faults for the
//     worker↔coordinator protocol: dropped connections, injected
//     latency, duplicated requests, and synthesized 5xx responses.
//   - Roll/Intn expose the same seeded stream to process-level fault
//     schedules (cmd/proteus-chaos kills and stalls workers mid-batch
//     with it).
//
// Determinism contract: every decision is drawn from one rand.Rand
// seeded by Config-independent Seed, so a fixed seed reproduces the
// same fault mix and rates. Under concurrency the interleaving of draws
// follows goroutine scheduling, so the exact fault *schedule* can vary
// between runs — which is precisely what the soak harness wants: the
// system must produce byte-identical reports under any schedule the
// seed generates, not under one blessed schedule. Every injected fault
// is counted per kind; Counters() is the campaign's evidence that the
// surfaces actually fired.
package chaos

import (
	"math/rand"
	"sync"
	"time"
)

// Config sets per-operation fault probabilities, each in [0, 1]. The
// zero value injects nothing.
type Config struct {
	// Filesystem faults (FS).
	TornWrite   float64 // a write persists only a prefix but reports full success
	BitFlip     float64 // one random bit of a read flips
	ENOSPC      float64 // a write fails with "no space left on device"
	SyncFail    float64 // an fsync fails after writing
	CrashRename float64 // the publishing rename never happens (process "crashed")

	// Network faults (RoundTripper).
	Drop        float64       // the connection drops before a response arrives
	Delay       float64       // the request is delayed by up to MaxDelay
	Dup         float64       // the network delivers the request twice
	ServerError float64       // a synthesized 503 comes back instead of the real response
	MaxDelay    time.Duration // cap for injected latency; <= 0 means 50ms
}

// Injector is the shared seeded decision stream. Safe for concurrent
// use.
type Injector struct {
	conf Config

	mu     sync.Mutex
	rng    *rand.Rand
	counts map[string]uint64
}

// New returns an injector whose decisions are fully determined by seed.
func New(seed int64, conf Config) *Injector {
	if conf.MaxDelay <= 0 {
		conf.MaxDelay = 50 * time.Millisecond
	}
	return &Injector{
		conf:   conf,
		rng:    rand.New(rand.NewSource(seed)),
		counts: make(map[string]uint64),
	}
}

// Config returns the injector's fault configuration.
func (in *Injector) Config() Config { return in.conf }

// Roll draws one decision: with probability p it records a fault of the
// given kind and returns true. p <= 0 never fires (and draws nothing,
// so disabled faults do not perturb the stream of enabled ones).
func (in *Injector) Roll(kind string, p float64) bool {
	if p <= 0 {
		return false
	}
	in.mu.Lock()
	hit := in.rng.Float64() < p
	if hit {
		in.counts[kind]++
	}
	in.mu.Unlock()
	return hit
}

// Intn draws a uniform int in [0, n) from the seeded stream.
func (in *Injector) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	in.mu.Lock()
	v := in.rng.Intn(n)
	in.mu.Unlock()
	return v
}

// Counters snapshots the per-kind fault counts.
func (in *Injector) Counters() map[string]uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]uint64, len(in.counts))
	for k, v := range in.counts {
		out[k] = v
	}
	return out
}

// Total is the number of faults injected so far across all kinds.
func (in *Injector) Total() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	var t uint64
	for _, v := range in.counts {
		t += v
	}
	return t
}
