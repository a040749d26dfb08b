package cluster

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/crashcampaign"
	"repro/internal/engine"
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
	// unit the coordinator scatters a campaign into. Its payload is the
	// crashcampaign.Config's JSON encoding narrowed to that one pair, and
	// its result the crashcampaign.TupleReport's.
	KindCampaignTuple = "campaign-tuple"
)

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
		c, err := decodeTuple(it.Payload)
		if err != nil {
			return nil, err
		}
		c.Engine = eng
		rep, err := crashcampaign.RunTuple(ctx, c, c.Benches[0], c.Schemes[0])
		if err != nil {
			return nil, err
		}
		return json.Marshal(rep)
	default:
		return nil, fmt.Errorf("cluster: unknown item kind %q", it.Kind)
	}
}

// decodeTuple decodes a campaign-tuple payload and refuses one that does
// not name exactly one bench and one scheme.
func decodeTuple(payload json.RawMessage) (crashcampaign.Config, error) {
	var c crashcampaign.Config
	if err := json.Unmarshal(payload, &c); err != nil {
		return c, fmt.Errorf("cluster: decoding campaign tuple: %w", err)
	}
	if len(c.Benches) != 1 || len(c.Schemes) != 1 {
		return c, fmt.Errorf("cluster: campaign tuple names %d benches and %d schemes, want one of each", len(c.Benches), len(c.Schemes))
	}
	return c, nil
}
