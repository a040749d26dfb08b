package crashcampaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/nvm"
	"repro/internal/workload"
)

// ImageFileName is the serialized crash image inside an artifact dir.
const ImageFileName = "image.nvmimg"

// MetaFileName is the replay descriptor inside an artifact dir.
const MetaFileName = "meta.json"

// ReplayCommand prefixes an artifact directory to form the command line
// that replays it.
const ReplayCommand = "proteus-recover -replay "

// ArtifactMeta is everything needed to rebuild a reproducer's target and
// re-run its injection from scratch: the program source and its
// parameters, the scheme, the fault with its seed and mask, and the crash
// cycle, plus the outcome it was recorded with.
type ArtifactMeta struct {
	// Source is a benchmark abbreviation or a litmus program name.
	Source            string          `json:"source"`
	Scheme            core.Scheme     `json:"scheme"`
	Params            workload.Params `json:"params"`
	ConfigFingerprint string          `json:"config_fingerprint"`
	Seed              int64           `json:"seed"`
	Fault             Fault           `json:"fault"`
	FaultSeed         uint64          `json:"fault_seed"`
	Cycle             uint64          `json:"cycle"`
	OriginalCycle     uint64          `json:"original_cycle"`
	Mask              []int           `json:"mask,omitempty"`
	Committed         []int           `json:"committed"`
	Outcome           Outcome         `json:"outcome"`
	Detail            string          `json:"detail,omitempty"`
	// Dir is where the artifact lives; it is not stored.
	Dir string `json:"-"`
}

// Artifact is a loaded reproducer directory.
type Artifact struct {
	Meta ArtifactMeta
	// Image is the stored serialized (pre-recovery) crash image.
	Image []byte
}

// crash replays the program to the injection's cycle and returns the
// crash image, its serialization and the committed counts there.
func (t *Target) crash(inj Injection) (*nvm.Store, []byte, []int, error) {
	sys, err := t.SystemAt(inj.Cycle)
	if err != nil {
		return nil, nil, nil, err
	}
	defer sys.Release()
	img := inj.Apply(sys, t.Sim.Cores)
	var buf bytes.Buffer
	if err := img.Serialize(&buf); err != nil {
		return nil, nil, nil, err
	}
	return img, buf.Bytes(), sys.CommittedCounts(), nil
}

// WriteArtifact replays the injection, classifies it, and dumps it as a
// reproducer directory under root, named after the source, scheme, fault
// and the cycle the failure was first seen at (origCycle).
func (t *Target) WriteArtifact(root string, inj Injection, origCycle uint64) (*ArtifactMeta, error) {
	img, raw, committed, err := t.crash(inj)
	if err != nil {
		return nil, err
	}
	out, detail := t.Classify(img, inj.Fault, committed)
	m := &ArtifactMeta{
		Source:            t.Source,
		Scheme:            t.Scheme,
		Params:            t.Params,
		ConfigFingerprint: t.Sim.Fingerprint(),
		Seed:              t.Seed,
		Fault:             inj.Fault,
		FaultSeed:         inj.Seed,
		Cycle:             inj.Cycle,
		OriginalCycle:     origCycle,
		Mask:              inj.Mask,
		Committed:         committed,
		Outcome:           out,
		Detail:            detail,
		Dir: filepath.Join(root, fmt.Sprintf("%s-%s-%s-c%d",
			sanitize(t.Source), sanitize(t.Scheme.String()), inj.Fault, origCycle)),
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(m.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("crashcampaign: artifact dir: %w", err)
	}
	if err := os.WriteFile(filepath.Join(m.Dir, ImageFileName), raw, 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(m.Dir, MetaFileName), append(b, '\n'), 0o644); err != nil {
		return nil, err
	}
	return m, nil
}

// sanitize maps a source or scheme name to a directory-name fragment:
// lower case, '+' spelled 'p', ';' (a litmus transaction split) spelled
// '.', anything else outside [a-z0-9-] spelled '_'.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			return r
		case r == '+':
			return 'p'
		case r == ';':
			return '.'
		default:
			return '_'
		}
	}, strings.ToLower(s))
}

// LoadArtifact reads a reproducer directory.
func LoadArtifact(dir string) (*Artifact, error) {
	b, err := os.ReadFile(filepath.Join(dir, MetaFileName))
	if err != nil {
		return nil, err
	}
	a := &Artifact{}
	if err := json.Unmarshal(b, &a.Meta); err != nil {
		return nil, fmt.Errorf("crashcampaign: parsing %s: %w", MetaFileName, err)
	}
	a.Meta.Dir = dir
	if a.Image, err = os.ReadFile(filepath.Join(dir, ImageFileName)); err != nil {
		return nil, err
	}
	return a, nil
}

// ReplayResult is the outcome of replaying an artifact.
type ReplayResult struct {
	// ImageMatches reports whether the rebuilt crash image is
	// byte-identical to the stored one.
	ImageMatches bool
	// Committed holds the per-thread committed counts at the crash cycle.
	Committed []int
	// Outcome and Detail classify the rebuilt image.
	Outcome Outcome
	Detail  string
	// Reproduced: the image matches and classifies as recorded.
	Reproduced bool
}

// Replay re-simulates the artifact's injection on the target from cycle
// 0, compares the rebuilt crash image with the stored one, and classifies
// it again. The target must be the one the artifact's meta describes.
func (t *Target) Replay(a *Artifact) (*ReplayResult, error) {
	inj := Injection{Fault: a.Meta.Fault, Cycle: a.Meta.Cycle, Seed: a.Meta.FaultSeed, Mask: a.Meta.Mask}
	img, raw, committed, err := t.crash(inj)
	if err != nil {
		return nil, err
	}
	r := &ReplayResult{ImageMatches: bytes.Equal(raw, a.Image), Committed: committed}
	r.Outcome, r.Detail = t.Classify(img, inj.Fault, committed)
	r.Reproduced = r.ImageMatches && r.Outcome == a.Meta.Outcome
	return r, nil
}
