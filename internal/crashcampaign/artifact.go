package crashcampaign

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/logging"
	"repro/internal/nvm"
	"repro/internal/recovery"
	"repro/internal/workload"
)

// ImageFileName is the serialized crash image inside an artifact dir.
const ImageFileName = "image.nvmimg"

// MetaFileName is the replay descriptor inside an artifact dir.
const MetaFileName = "meta.json"

// ArtifactMeta is everything needed to replay a minimized failure from
// scratch: the workload identity and parameters, the fault and its seed,
// the crash cycle, and the shrunk fault mask. proteus-recover's -campaign
// flag consumes it.
type ArtifactMeta struct {
	Bench             string          `json:"bench"`
	Scheme            string          `json:"scheme"`
	Params            workload.Params `json:"params"`
	ConfigFingerprint string          `json:"config_fingerprint"`
	CampaignSeed      int64           `json:"campaign_seed"`
	Fault             string          `json:"fault"`
	FaultSeed         uint64          `json:"fault_seed"`
	Cycle             uint64          `json:"cycle"`
	OriginalCycle     uint64          `json:"original_cycle"`
	Mask              []int           `json:"mask,omitempty"`
	Committed         []int           `json:"committed"`
	Outcome           Outcome         `json:"outcome"`
	Detail            string          `json:"detail,omitempty"`
	Image             string          `json:"image"`
}

// writeArtifact dumps the minimized failure as a reproducer directory and
// returns its path plus the ready-to-run replay command line.
func (tc *tupleCtx) writeArtifact(inj injection, orig InjectionResult, m *Minimized) (string, string, error) {
	sys, err := tc.newSystem()
	if err != nil {
		return "", "", err
	}
	defer sys.Release()
	stepTo(sys, inj.cycle)
	img := buildImage(sys, tc.threads, inj)
	committed := sys.CommittedCounts()

	name := fmt.Sprintf("%s-%s-%s-c%d",
		strings.ToLower(tc.bench.Abbrev()), sanitize(tc.scheme.String()), inj.fault, orig.Cycle)
	dir := filepath.Join(tc.camp.ArtifactDir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", fmt.Errorf("crashcampaign: artifact dir: %w", err)
	}

	f, err := os.Create(filepath.Join(dir, ImageFileName))
	if err != nil {
		return "", "", err
	}
	if err := img.Serialize(f); err != nil {
		f.Close()
		return "", "", err
	}
	if err := f.Close(); err != nil {
		return "", "", err
	}

	meta := ArtifactMeta{
		Bench:             tc.bench.Abbrev(),
		Scheme:            tc.scheme.String(),
		Params:            tc.camp.Params,
		ConfigFingerprint: tc.cfg.Fingerprint(),
		CampaignSeed:      tc.camp.Seed,
		Fault:             inj.fault.String(),
		FaultSeed:         inj.seed,
		Cycle:             inj.cycle,
		OriginalCycle:     orig.Cycle,
		Mask:              inj.mask,
		Committed:         committed,
		Outcome:           m.Outcome,
		Detail:            m.Detail,
		Image:             ImageFileName,
	}
	b, err := json.MarshalIndent(&meta, "", "  ")
	if err != nil {
		return "", "", err
	}
	metaPath := filepath.Join(dir, MetaFileName)
	if err := os.WriteFile(metaPath, append(b, '\n'), 0o644); err != nil {
		return "", "", err
	}
	return dir, fmt.Sprintf("%s -campaign %s", tc.camp.RecoverCmd, metaPath), nil
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-':
			return r
		case r == '+':
			return 'p'
		default:
			return '_'
		}
	}, strings.ToLower(s))
}

// LoadArtifact reads an artifact's replay descriptor.
func LoadArtifact(path string) (*ArtifactMeta, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m ArtifactMeta
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("crashcampaign: parsing %s: %w", path, err)
	}
	return &m, nil
}

// ReplayResult is the rebuilt pre-recovery state of an artifact (or of a
// manual injection): the faulted crash image plus everything the caller
// needs to run recovery and verify it.
type ReplayResult struct {
	Image     *nvm.Store
	Committed []int
	Oracle    *recovery.Oracle
	Scheme    core.Scheme
	SW        bool
	Threads   int
}

// Replay re-runs the artifact's injection from scratch under sim (which
// should match the recorded config fingerprint; the caller is told if it
// does not) and returns the faulted image ready for recovery.
func (a *ArtifactMeta) Replay(ctx context.Context, sim config.Config) (*ReplayResult, error) {
	var kind workload.Kind
	found := false
	for _, k := range workload.Table2 {
		if strings.EqualFold(k.Abbrev(), a.Bench) {
			kind, found = k, true
		}
	}
	if !found {
		return nil, fmt.Errorf("crashcampaign: unknown benchmark %q", a.Bench)
	}
	scheme, err := SchemeByName(a.Scheme)
	if err != nil {
		return nil, err
	}
	fault, err := parseFault(a.Fault)
	if err != nil {
		return nil, err
	}
	sim.Cores = a.Params.Threads
	wl, err := workload.Build(kind, a.Params)
	if err != nil {
		return nil, err
	}
	traces, err := logging.Generate(wl, scheme, sim)
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(sim, scheme, traces, wl.InitImage)
	if err != nil {
		return nil, err
	}
	defer sys.Release()
	stepTo(sys, a.Cycle)
	inj := injection{fault: fault, cycle: a.Cycle, seed: a.FaultSeed, mask: a.Mask}
	return &ReplayResult{
		Image:     buildImage(sys, sim.Cores, inj),
		Committed: sys.CommittedCounts(),
		Oracle:    recovery.NewOracle(wl),
		Scheme:    scheme,
		SW:        scheme == core.PMEM || scheme == core.PMEMPcommit,
		Threads:   sim.Cores,
	}, nil
}

// SchemeByName resolves a scheme by its display name (case-insensitive).
func SchemeByName(name string) (core.Scheme, error) {
	for _, s := range core.Schemes {
		if strings.EqualFold(s.String(), name) {
			return s, nil
		}
	}
	return 0, fmt.Errorf("crashcampaign: unknown scheme %q", name)
}
