package cluster

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/crashcampaign"
	"repro/internal/engine"
	"repro/internal/workload"
)

// Work item kinds. The kind selects the executor on the worker; payloads
// are JSON so the protocol carries no process-local state (engines,
// stores, channels stay on their own side).
const (
	// KindSim is one engine job: a (workload, scheme, config) tuple. Its
	// payload is the engine.Job's JSON encoding and its result the
	// engine.Result's.
	KindSim = "sim"
	// KindCampaignTuple is one (bench, scheme) crash-campaign sweep — the
	// unit the coordinator scatters a campaign into.
	KindCampaignTuple = "campaign-tuple"
)

// TupleWork is the wire form of one crash-campaign (bench, scheme) sweep:
// the campaign parameters narrowed to a single tuple. Bench, scheme and
// faults travel by name, the minimize mode as its integer; the artifact
// directory deliberately does not travel — reproducer dumps are a
// local-debugging feature, and leaving it empty keeps the TupleReport
// bytes identical to a local (non-cluster) campaign run.
type TupleWork struct {
	Bench    workload.Kind              `json:"bench"`
	Scheme   core.Scheme                `json:"scheme"`
	Params   workload.Params            `json:"params"`
	Sim      config.Config              `json:"sim"`
	Sweep    int                        `json:"sweep"`
	Rand     int                        `json:"rand"`
	Faults   []crashcampaign.Fault      `json:"faults"`
	Seed     int64                      `json:"seed"`
	Minimize crashcampaign.MinimizeMode `json:"minimize"`
}

// compile binds the wire form to a single-tuple campaign config on the
// worker's engine.
func (w TupleWork) compile(eng *engine.Engine) crashcampaign.Config {
	return crashcampaign.Config{
		Benches:  []workload.Kind{w.Bench},
		Schemes:  []core.Scheme{w.Scheme},
		Params:   w.Params,
		Sim:      w.Sim,
		Sweep:    w.Sweep,
		Rand:     w.Rand,
		Faults:   crashcampaign.NormalizeFaults(w.Faults),
		Seed:     w.Seed,
		Minimize: w.Minimize,
		Engine:   eng,
	}
}

// executeItem runs one leased item on the worker's engine and returns its
// canonical result encoding. An error here is an attempt failure: the
// coordinator requeues (and eventually quarantines) the item.
func executeItem(ctx context.Context, eng *engine.Engine, it Item) (json.RawMessage, error) {
	switch it.Kind {
	case KindSim:
		var j engine.Job
		if err := json.Unmarshal(it.Payload, &j); err != nil {
			return nil, fmt.Errorf("cluster: decoding sim work: %w", err)
		}
		res, err := eng.Run(ctx, j)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	case KindCampaignTuple:
		var w TupleWork
		if err := json.Unmarshal(it.Payload, &w); err != nil {
			return nil, fmt.Errorf("cluster: decoding tuple work: %w", err)
		}
		rep, err := crashcampaign.RunTuple(ctx, w.compile(eng), w.Bench, w.Scheme)
		if err != nil {
			return nil, err
		}
		return json.Marshal(rep)
	default:
		return nil, fmt.Errorf("cluster: unknown item kind %q", it.Kind)
	}
}
