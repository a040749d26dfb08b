// Package crashcampaign runs fault-injection campaigns over the
// simulator: it sweeps crash points across (benchmark, scheme) tuples,
// extracts crash images under several power-failure fault models, runs
// recovery, checks the oracle's durable-transaction property, and
// classifies every injection against an expectation matrix. Expected-safe
// combinations that fail are automatically minimized (the crash point is
// bisected to the earliest failing cycle and the fault mask shrunk) and
// dumped as ready-to-replay reproducer artifacts.
//
// The per-injection machinery — Target, its Expectation, the classifier,
// the minimizer, the artifact format and its replay — is the one crash
// pipeline of the repository: the litmus harness sweeps its programs as
// Targets judged by the ordering axioms instead of the oracle.
//
// Everything the campaign computes is deterministic in (config, seed):
// crash points, per-injection randomness, result order, and the report
// bytes are identical no matter how many engine workers execute the
// sweep.
package crashcampaign

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/enum"
	"repro/internal/isa"
	"repro/internal/memctrl"
	"repro/internal/nvm"
)

// Fault is a power-failure fault model.
type Fault int

const (
	// FaultClean is a nominal power cut: the scheme's persistency domain
	// (ADR queues included where the platform has them) drains intact.
	FaultClean Fault = iota
	// FaultTorn tears pending line writes: only a prefix of the 8-byte
	// words of each affected 64-byte line reaches NVM. Under ADR this
	// breaks the platform's drain guarantee; without ADR it models device
	// writes interrupted mid-line.
	FaultTorn
	// FaultADRLoss drops the WPQ/LPQ contents a scheme's ADR domain was
	// supposed to drain (a failed backup capacitor).
	FaultADRLoss
	// FaultCorrupt flips one bit in every affected materialized log-area
	// line of the clean crash image. Recovery must either still produce a
	// verified state or report the corruption — never silently apply it.
	FaultCorrupt
)

// AllFaults lists every model in campaign order.
var AllFaults = []Fault{FaultClean, FaultTorn, FaultADRLoss, FaultCorrupt}

var faultNames = [...]string{"clean", "torn", "adrloss", "corrupt"}

func (f Fault) String() string {
	if f >= 0 && int(f) < len(faultNames) {
		return faultNames[f]
	}
	return fmt.Sprintf("Fault(%d)", int(f))
}

var faultModels = enum.Names[Fault]{What: "fault", Values: AllFaults, All: AllFaults}

// MarshalText encodes a fault model as its name.
func (f Fault) MarshalText() ([]byte, error) { return []byte(f.String()), nil }

// UnmarshalText decodes a fault model's name, case-insensitively.
func (f *Fault) UnmarshalText(text []byte) error { return faultModels.Unmarshal(f, text) }

// NormalizeFaults returns the fault list a sweep injects: FaultClean, the
// baseline every sweep needs, then each other listed model once, in
// campaign order. Local campaigns, cluster workers and the litmus sweep
// all normalize through it, so they agree on what a list implies.
func NormalizeFaults(fs []Fault) []Fault {
	out := []Fault{FaultClean}
	for _, f := range AllFaults[1:] {
		if slices.Contains(fs, f) {
			out = append(out, f)
		}
	}
	return out
}

// ParseFaults parses a comma-separated fault list ("torn,adrloss", or
// "all") into its normalized form.
func ParseFaults(s string) ([]Fault, error) {
	fs, err := faultModels.List(s)
	if err != nil {
		return nil, err
	}
	return NormalizeFaults(fs), nil
}

// QueuesLost reports whether the fault defeats the platform's ADR drain
// of the controller queues — torn queue writes and capacitor loss do, a
// clean cut and log corruption do not.
func (f Fault) QueuesLost() bool { return f == FaultTorn || f == FaultADRLoss }

// ExpectSafe reports whether the (scheme, fault) combination is expected
// to satisfy the durable-transaction property, derived from the scheme's
// declared ordering axioms: torn and ADR-loss faults break the ADR drain,
// so only a scheme whose rules never relied on it (QueueDrain false,
// i.e. PMEM+pcommit) is expected to survive them. FaultCorrupt is never
// "safe" in this sense: its contract is verified-or-detected, which the
// classifier handles separately.
func ExpectSafe(s core.Scheme, f Fault) bool {
	if !s.FailureSafe() || f == FaultCorrupt {
		return false
	}
	return s.Ordering().ExpectSafe(f.QueuesLost())
}

// AppliesTo reports whether injecting the fault into the scheme is
// meaningful. ADR loss is a no-op for a scheme whose persistency domain
// never included the queues (QueueDrain false in its ordering rules).
func (f Fault) AppliesTo(s core.Scheme) bool {
	if f == FaultADRLoss {
		return s.Ordering().QueueDrain
	}
	return true
}

// mix hashes words into a well-distributed 64-bit value (splitmix64
// finalization). Per-line fault decisions hash (seed, line identity)
// statelessly, so shrinking a fault mask never shifts the randomness of
// the lines that remain.
func mix(vals ...uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, v := range vals {
		h ^= v + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)
		h ^= h >> 30
		h *= 0xBF58476D1CE4E5B9
	}
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// InjectionSeed derives a deterministic fault seed from a campaign seed
// and an injection's identity (FNV over the parts).
func InjectionSeed(campaignSeed int64, parts ...string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d", campaignSeed)
	for _, p := range parts {
		h.Write([]byte{0})
		h.Write([]byte(p))
	}
	return h.Sum64()
}

// Injection is one fault injection: a fault model applied at a crash
// cycle, with the seed that drives its stateless per-line randomness.
// Mask, when non-nil, restricts the fault to the listed target indexes
// (pending-line index for torn, sorted-log-line index for corrupt); nil
// faults every target. The minimizer shrinks it.
type Injection struct {
	Fault Fault
	Cycle uint64
	Seed  uint64
	Mask  []int
}

func maskSet(mask []int) map[int]bool {
	if mask == nil {
		return nil
	}
	m := make(map[int]bool, len(mask))
	for _, i := range mask {
		m[i] = true
	}
	return m
}

// tornWords returns how many leading 8-byte words of pending line idx
// persist under the injection's seed: always a strict prefix (0..7), so
// every selected line genuinely tears.
func tornWords(seed uint64, idx int) int {
	return int(mix(seed, 0x7047, uint64(idx)) % 8)
}

// logLines returns the materialized log-area lines of the image across
// all threads, in ascending address order — the corrupt fault's target
// list.
func logLines(img *nvm.Store, threads int) []uint64 {
	var out []uint64
	for t := 0; t < threads; t++ {
		base, limit := isa.LogWindow(t)
		out = append(out, img.LinesIn(base, limit)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Apply extracts the crash image the injection leaves behind at the
// system's current state (the caller has stepped it to Cycle). The system
// is not advanced or mutated.
func (in Injection) Apply(sys *core.System, threads int) *nvm.Store {
	switch in.Fault {
	case FaultADRLoss:
		return sys.CrashImageWith(memctrl.CrashFault{ADR: false})
	case FaultTorn:
		sel := maskSet(in.Mask)
		return sys.CrashImageWith(memctrl.CrashFault{
			ADR: sys.ADR(),
			Torn: func(idx int, addr uint64) int {
				if sel != nil && !sel[idx] {
					return 8 // not selected: the whole line persists
				}
				return tornWords(in.Seed, idx)
			},
		})
	case FaultCorrupt:
		img := sys.CrashImage()
		sel := maskSet(in.Mask)
		for i, addr := range logLines(img, threads) {
			if sel != nil && !sel[i] {
				continue
			}
			bit := mix(in.Seed, 0xC0FF, addr) % (isa.LineSize * 8)
			line := img.Read(addr, isa.LineSize)
			line[bit/8] ^= 1 << (bit % 8)
			img.Write(addr, line)
		}
		return img
	}
	return sys.CrashImage()
}

// Targets returns the size of the fault's target universe at the system's
// current state — the index space a Mask selects from (pending lines for
// torn, materialized log lines for corrupt, 0 for the rest).
func (in Injection) Targets(sys *core.System, threads int) int {
	switch in.Fault {
	case FaultTorn:
		return len(sys.PendingLines(sys.ADR()))
	case FaultCorrupt:
		return len(logLines(sys.CrashImage(), threads))
	}
	return 0
}
