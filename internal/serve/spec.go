package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/crashcampaign"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Spec is the wire format of one job submission. Type selects the shape:
//
//   - "sim": one (bench, scheme, mem) tuple, the proteus-sim workload
//     sizing rules (zero SimOps means Table 2 / 25).
//   - "figure": one experiment table ("6".."12", "t4") on a shared
//     experiments.Suite; Scale "quick" uses the test sizing, anything
//     else the standard reduced scale.
//   - "campaign": a crash-campaign sweep (benches × schemes × faults).
//
// Unset numeric fields take the same defaults the CLIs use, so a job
// submitted over HTTP names the same tuple as the equivalent CLI run and
// shares its cache entries.
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
// cache. Figure and campaign jobs hash their normalized parameters. The
// execution deadline is part of the identity only through TimeoutMS, so
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
		c := j.campaign
		return hash(fmt.Sprintf("campaign/%v/%v/%#v/%s/%d/%d/%v/%d/%d",
			c.Benches, c.Schemes, c.Params, c.Sim.Fingerprint(), c.Sweep, c.Rand, c.Faults, c.Seed, j.spec.TimeoutMS))
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
		kind, err := workload.KindByName(defaultStr(s.Bench, "QE"))
		if err != nil {
			return nil, err
		}
		scheme, err := core.SchemeByName(defaultStr(s.Scheme, "Proteus"))
		if err != nil {
			return nil, err
		}
		memKind, err := config.ParseMemKind(defaultStr(s.Mem, "nvm-fast"))
		if err != nil {
			return nil, err
		}
		j.simJob = simJob(kind, scheme, memKind, s)
	case "figure":
		name := strings.ToLower(defaultStr(s.Figure, "6"))
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
	case "campaign":
		benches, err := splitParse(defaultStr(s.Benches, "QE"), workload.KindByName)
		if err != nil {
			return nil, err
		}
		schemes, err := splitParse(defaultStr(s.Schemes, "Proteus"), core.SchemeByName)
		if err != nil {
			return nil, err
		}
		faults, err := crashcampaign.ParseFaults(defaultStr(s.Faults, "clean"))
		if err != nil {
			return nil, err
		}
		threads := s.Threads
		if threads <= 0 {
			threads = 2
		}
		simOps, initOps := s.SimOps, s.InitOps
		if simOps <= 0 {
			simOps = 40
		}
		if initOps <= 0 {
			initOps = 256
		}
		wseed := s.Seed
		if wseed == 0 {
			wseed = 11
		}
		cseed := s.CampaignSeed
		if cseed == 0 {
			cseed = 1
		}
		sweep := s.Sweep
		if sweep <= 0 {
			sweep = 16
		}
		j.campaign = crashcampaign.Config{
			Benches: benches,
			Schemes: schemes,
			Params: workload.Params{Threads: threads, InitOps: initOps, SimOps: simOps, Seed: wseed,
				SSItems: 256, SSStrSize: 256, ListNodes: 4, ListElems: 64},
			Sim:    config.Default(),
			Sweep:  sweep,
			Rand:   s.Rand,
			Faults: faults,
			Seed:   cseed,
		}
	default:
		return nil, fmt.Errorf("unknown job type %q (want sim, figure, campaign)", s.Type)
	}
	return j, nil
}

// simJob builds the engine job exactly the way cmd/proteus-sim does, so
// the HTTP transport and the CLI name identical tuples — the determinism
// guarantee across transports reduces to the engine's own.
func simJob(kind workload.Kind, scheme core.Scheme, memKind config.MemKind, s Spec) engine.Job {
	threads := s.Threads
	if threads <= 0 {
		threads = 4
	}
	p := kind.DefaultParams(1)
	p.Threads = threads
	p.Seed = defaultInt64(s.Seed, 42)
	if s.SimOps > 0 {
		p.SimOps = s.SimOps
	} else {
		p.SimOps /= 25
		if p.SimOps < 8 {
			p.SimOps = 8
		}
	}
	if s.InitOps > 0 {
		p.InitOps = s.InitOps
	}
	cfg := config.Default().WithMemKind(memKind)
	cfg.Cores = threads
	cfg.Proteus.LogQ = defaultInt(s.LogQ, 16)
	cfg.Mem.LPQ = defaultInt(s.LPQ, 256)
	return engine.Job{Kind: kind, Params: p, Scheme: scheme, Config: cfg}
}

// SimResult is the result payload of a "sim" job. It is canonical: the
// same tuple marshals to identical bytes whether it ran live, came from
// the engine memo table, or was read back from the on-disk store.
type SimResult struct {
	Job               string        `json:"job"`
	Fingerprint       string        `json:"fingerprint"`
	Report            *stats.Report `json:"report"`
	EmittedLogFlushes uint64        `json:"emitted_log_flushes"`
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
		return json.Marshal(SimResult{
			Job:               j.simJob.String(),
			Fingerprint:       j.simJob.Fingerprint(),
			Report:            res.Report,
			EmittedLogFlushes: res.EmittedLogFlushes,
		})
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

func splitParse[T any](s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, name := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func defaultStr(s, d string) string {
	if s == "" {
		return d
	}
	return s
}

func defaultInt(v, d int) int {
	if v == 0 {
		return d
	}
	return v
}

func defaultInt64(v, d int64) int64 {
	if v == 0 {
		return d
	}
	return v
}
