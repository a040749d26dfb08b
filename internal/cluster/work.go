package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/crashcampaign"
	"repro/internal/engine"
	"repro/internal/logging"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Work item kinds. The kind selects the executor on the worker; payloads
// are JSON so the protocol carries no process-local state (engines,
// stores, channels stay on their own side).
const (
	// KindSim is one engine job: a (workload, scheme, config) tuple.
	KindSim = "sim"
	// KindCampaignTuple is one (bench, scheme) crash-campaign sweep — the
	// unit the coordinator scatters a campaign into.
	KindCampaignTuple = "campaign-tuple"
)

// SimWork is the wire form of one engine.Job. Kind and scheme travel as
// their canonical names (the same parsers every CLI flag uses), the
// config and params as their full structs — so the worker rebuilds a job
// with the identical fingerprint, hitting the same result-store shard the
// ring placed it by.
type SimWork struct {
	Bench  string          `json:"bench"`
	Scheme string          `json:"scheme"`
	Params workload.Params `json:"params"`
	Config config.Config   `json:"config"`
	Log    logging.Options `json:"log"`
}

// SimOutcome is the result payload of a KindSim item.
type SimOutcome struct {
	Report            *stats.Report `json:"report"`
	EmittedLogFlushes uint64        `json:"emitted_log_flushes"`
}

// NewSimWork converts an engine job to its wire form.
func NewSimWork(j engine.Job) SimWork {
	return SimWork{
		Bench:  j.Kind.Abbrev(),
		Scheme: j.Scheme.String(),
		Params: j.Params,
		Config: j.Config,
		Log:    j.Log,
	}
}

// Job rebuilds the engine job the wire form names.
func (w SimWork) Job() (engine.Job, error) {
	kind, err := workload.KindByName(w.Bench)
	if err != nil {
		return engine.Job{}, err
	}
	scheme, err := core.SchemeByName(w.Scheme)
	if err != nil {
		return engine.Job{}, err
	}
	return engine.Job{Kind: kind, Params: w.Params, Scheme: scheme, Config: w.Config, Log: w.Log}, nil
}

// TupleWork is the wire form of one crash-campaign (bench, scheme) sweep:
// the campaign parameters narrowed to a single tuple. Faults travel as
// names; the artifact directory deliberately does not travel — reproducer
// dumps are a local-debugging feature, and leaving it empty keeps the
// TupleReport bytes identical to a local (non-cluster) campaign run.
type TupleWork struct {
	Bench    string          `json:"bench"`
	Scheme   string          `json:"scheme"`
	Params   workload.Params `json:"params"`
	Sim      config.Config   `json:"sim"`
	Sweep    int             `json:"sweep"`
	Rand     int             `json:"rand"`
	Faults   []string        `json:"faults"`
	Seed     int64           `json:"seed"`
	Minimize int             `json:"minimize"`
}

// compile resolves the wire form to a single-tuple campaign config bound
// to the worker's engine.
func (w TupleWork) compile(eng *engine.Engine) (crashcampaign.Config, workload.Kind, core.Scheme, error) {
	kind, err := workload.KindByName(w.Bench)
	if err != nil {
		return crashcampaign.Config{}, 0, 0, err
	}
	scheme, err := core.SchemeByName(w.Scheme)
	if err != nil {
		return crashcampaign.Config{}, 0, 0, err
	}
	faults, err := crashcampaign.ParseFaults(strings.Join(w.Faults, ","))
	if err != nil {
		return crashcampaign.Config{}, 0, 0, err
	}
	c := crashcampaign.Config{
		Benches:  []workload.Kind{kind},
		Schemes:  []core.Scheme{scheme},
		Params:   w.Params,
		Sim:      w.Sim,
		Sweep:    w.Sweep,
		Rand:     w.Rand,
		Faults:   faults,
		Seed:     w.Seed,
		Minimize: crashcampaign.MinimizeMode(w.Minimize),
		Engine:   eng,
	}
	return c, kind, scheme, nil
}

// executeItem runs one leased item on the worker's engine and returns its
// canonical result encoding. An error here is an attempt failure: the
// coordinator requeues (and eventually quarantines) the item.
func executeItem(ctx context.Context, eng *engine.Engine, it Item) (json.RawMessage, error) {
	switch it.Kind {
	case KindSim:
		var w SimWork
		if err := json.Unmarshal(it.Payload, &w); err != nil {
			return nil, fmt.Errorf("cluster: decoding sim work: %w", err)
		}
		j, err := w.Job()
		if err != nil {
			return nil, err
		}
		res, err := eng.Run(ctx, j)
		if err != nil {
			return nil, err
		}
		return json.Marshal(SimOutcome{Report: res.Report, EmittedLogFlushes: res.EmittedLogFlushes})
	case KindCampaignTuple:
		var w TupleWork
		if err := json.Unmarshal(it.Payload, &w); err != nil {
			return nil, fmt.Errorf("cluster: decoding tuple work: %w", err)
		}
		c, kind, scheme, err := w.compile(eng)
		if err != nil {
			return nil, err
		}
		rep, err := crashcampaign.RunTuple(ctx, c, kind, scheme)
		if err != nil {
			return nil, err
		}
		return json.Marshal(rep)
	default:
		return nil, fmt.Errorf("cluster: unknown item kind %q", it.Kind)
	}
}
