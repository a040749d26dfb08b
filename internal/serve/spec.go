package serve

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/crashcampaign"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Spec is the wire format of one job submission. Type selects the shape:
//
//   - "sim": one (bench, scheme, mem) tuple, built by the same
//     engine.SimSpec as proteus-sim (zero SimOps means Table 2 / 25).
//     Unset fields take proteus-sim's defaults, so a sim submitted over
//     HTTP names the same tuple as the equivalent proteus-sim run and
//     shares its cache entries.
//   - "figure": one experiment table ("6".."12", "t4") on a shared
//     experiments.Suite; Scale "quick" uses the test sizing, anything
//     else the standard reduced scale.
//   - "campaign": a crash-campaign sweep (benches × schemes × faults).
//     It starts from crashcampaign.Default, proteus-crash's defaults, with
//     three exceptions: benches default to QE and schemes to Proteus
//     (proteus-crash: all and all), and sweep to 16 (proteus-crash: 64).
//     Benches, schemes and faults are comma-separated lists in which
//     "all" means what it means to proteus-crash.
type Spec struct {
	Type string `json:"type"`

	// sim fields.
	Bench   string `json:"bench,omitempty"`
	Scheme  string `json:"scheme,omitempty"`
	Mem     string `json:"mem,omitempty"`
	Threads int    `json:"threads,omitempty"`
	SimOps  int    `json:"simops,omitempty"`
	InitOps int    `json:"initops,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	LogQ    int    `json:"logq,omitempty"`
	LPQ     int    `json:"lpq,omitempty"`

	// figure fields.
	Figure string `json:"figure,omitempty"`
	Scale  string `json:"scale,omitempty"`

	// campaign fields.
	Benches      string `json:"benches,omitempty"`
	Schemes      string `json:"schemes,omitempty"`
	Sweep        int    `json:"sweep,omitempty"`
	Rand         int    `json:"rand,omitempty"`
	Faults       string `json:"faults,omitempty"`
	CampaignSeed int64  `json:"campaign_seed,omitempty"`

	// TimeoutMS bounds the job's execution wall clock; 0 uses the
	// server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Timeout returns the requested per-job deadline, or 0 for none.
func (s Spec) Timeout() time.Duration { return time.Duration(s.TimeoutMS) * time.Millisecond }

// job is a validated, executable submission.
type job struct {
	spec Spec

	// sim
	simJob engine.Job

	// figure
	figure string
	opts   experiments.Options

	// campaign
	campaign crashcampaign.Config
}

// fingerprint is the singleflight identity of the submission: two
// requests with the same fingerprint share one queued task. For sim jobs
// it is the engine's own job fingerprint — the same key the memo table
// and the result store use — so the collapse is exactly as wide as the
// cache. Figure jobs hash their normalized parameters, and campaign jobs
// their config's JSON encoding, every field that travels. The execution
// deadline is part of the identity only through TimeoutMS, so
// differently-bounded submissions do not share a task.
func (j *job) fingerprint() string {
	switch j.spec.Type {
	case "sim":
		if j.spec.TimeoutMS == 0 {
			return j.simJob.Fingerprint()
		}
		return hash(fmt.Sprintf("sim/%s/%d", j.simJob.Fingerprint(), j.spec.TimeoutMS))
	case "figure":
		return hash(fmt.Sprintf("figure/%s/%#v/%d", j.figure, j.opts, j.spec.TimeoutMS))
	default:
		// The encoding cannot fail: a Config's enums encode by name, and
		// its one float, the clock ratio, is config.Default's.
		enc, _ := json.Marshal(j.campaign)
		return hash(fmt.Sprintf("campaign/%s/%d", enc, j.spec.TimeoutMS))
	}
}

func hash(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}

// figures maps the spec names to suite methods returning tables.
var figures = map[string]func(*experiments.Suite) (*stats.Table, error){
	"6":  (*experiments.Suite).Figure6,
	"7":  (*experiments.Suite).Figure7,
	"8":  (*experiments.Suite).Figure8,
	"9":  (*experiments.Suite).Figure9,
	"10": (*experiments.Suite).Figure10,
	"11": (*experiments.Suite).Figure11,
	"12": (*experiments.Suite).Figure12,
	"t4": (*experiments.Suite).Table4,
}

// compile validates the spec and resolves it to an executable job.
func compile(s Spec) (*job, error) {
	j := &job{spec: s}
	if s.TimeoutMS < 0 {
		return nil, fmt.Errorf("negative timeout_ms %d", s.TimeoutMS)
	}
	switch s.Type {
	case "sim":
		d := engine.DefaultSimSpec
		var err error
		j.simJob, err = engine.SimSpec{
			Bench: cmp.Or(s.Bench, d.Bench), Scheme: cmp.Or(s.Scheme, d.Scheme), Mem: cmp.Or(s.Mem, d.Mem),
			Threads: cmp.Or(max(s.Threads, 0), d.Threads), SimOps: s.SimOps, InitOps: s.InitOps,
			Seed: cmp.Or(s.Seed, d.Seed), LogQ: cmp.Or(s.LogQ, d.LogQ), LPQ: cmp.Or(s.LPQ, d.LPQ),
		}.Job()
		if err != nil {
			return nil, err
		}
	case "figure":
		name := strings.ToLower(cmp.Or(s.Figure, "6"))
		if _, ok := figures[name]; !ok {
			return nil, fmt.Errorf("unknown figure %q (want 6-12, t4)", s.Figure)
		}
		j.figure = name
		j.opts = experiments.Default()
		if strings.EqualFold(s.Scale, "quick") {
			j.opts = experiments.Quick()
		}
		if s.Threads > 0 {
			j.opts.Threads = s.Threads
		}
		if s.Seed != 0 {
			j.opts.Seed = s.Seed
		}
		if err := j.opts.Validate(); err != nil {
			return nil, err
		}
	case "campaign":
		c := crashcampaign.Default()
		var err error
		if c.Benches, err = workload.ParseKinds(cmp.Or(s.Benches, "QE")); err != nil {
			return nil, err
		}
		if c.Schemes, err = core.ParseSchemes(cmp.Or(s.Schemes, "Proteus")); err != nil {
			return nil, err
		}
		if s.Faults != "" {
			if c.Faults, err = crashcampaign.ParseFaults(s.Faults); err != nil {
				return nil, err
			}
		}
		c.Params.Threads = cmp.Or(max(s.Threads, 0), c.Params.Threads)
		c.Params.InitOps = cmp.Or(max(s.InitOps, 0), c.Params.InitOps)
		c.Params.SimOps = cmp.Or(max(s.SimOps, 0), c.Params.SimOps)
		c.Params.Seed = cmp.Or(s.Seed, c.Params.Seed)
		c.Sweep = cmp.Or(max(s.Sweep, 0), 16)
		c.Rand = s.Rand
		c.Seed = cmp.Or(s.CampaignSeed, c.Seed)
		j.campaign = c
		if err := j.campaign.Validate(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown job type %q (want sim, figure, campaign)", s.Type)
	}
	return j, nil
}

// SimResult is the result payload of a "sim" job: the job's name and
// fingerprint followed by the engine.Result's own fields. It is
// canonical: the same tuple marshals to identical bytes whether it ran
// live, came from the engine memo table, or was read back from the
// on-disk store.
type SimResult struct {
	Job         string `json:"job"`
	Fingerprint string `json:"fingerprint"`
	engine.Result
}

// FigureResult is the result payload of a "figure" job.
type FigureResult struct {
	Figure string       `json:"figure"`
	Table  *stats.Table `json:"table"`
	Text   string       `json:"text"`
}

// execute runs the compiled job and returns its canonical result
// encoding. With a cluster coordinator attached, sim and campaign jobs
// are scattered to pull-based workers; the encodings are identical either
// way (the cluster returns the same Result/Report structs the local
// engine produces), so clients cannot tell — and must not care — where a
// job ran.
func (j *job) execute(ctx context.Context, eng *engine.Engine, clu *cluster.Coordinator) (json.RawMessage, error) {
	switch j.spec.Type {
	case "sim":
		var res *engine.Result
		var err error
		if clu != nil {
			res, err = cluster.RunSim(ctx, clu, j.simJob)
		} else {
			res, err = eng.Run(ctx, j.simJob)
		}
		if err != nil {
			return nil, err
		}
		return json.Marshal(SimResult{Job: j.simJob.String(), Fingerprint: j.simJob.Fingerprint(), Result: *res})
	case "figure":
		suite := experiments.NewSuite(ctx, j.opts, eng)
		tab, err := figures[j.figure](suite)
		if err != nil {
			return nil, err
		}
		return json.Marshal(FigureResult{Figure: j.figure, Table: tab, Text: tab.String()})
	default:
		c := j.campaign
		if clu != nil {
			rep, err := cluster.RunCampaign(ctx, clu, c)
			if err != nil {
				return nil, err
			}
			return json.Marshal(rep)
		}
		c.Engine = eng
		rep, err := crashcampaign.Run(ctx, c)
		if err != nil {
			return nil, err
		}
		return json.Marshal(rep)
	}
}
