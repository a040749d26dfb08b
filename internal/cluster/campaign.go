package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"

	"repro/internal/core"
	"repro/internal/crashcampaign"
	"repro/internal/engine"
	"repro/internal/workload"
)

// RunCampaign executes a crash campaign on the cluster: the bench ×
// scheme matrix is scattered as one KindCampaignTuple item per pair (the
// normalized config narrowed to that pair), workers sweep each tuple
// independently, and the coordinator gathers the TupleReports and
// assembles the final report in matrix order — the exact shape
// crashcampaign.Run produces locally, so the report bytes are identical
// whether a campaign ran in-process, on 1 worker, or on N workers with
// crashes along the way.
//
// A quarantined tuple (an item that failed its whole retry budget) fails
// the campaign with ErrQuarantined rather than wedging it.
func RunCampaign(ctx context.Context, co *Coordinator, c crashcampaign.Config) (*crashcampaign.Report, error) {
	c.Normalize()
	var ids []string
	for _, bench := range c.Benches {
		for _, scheme := range c.Schemes {
			tuple := c
			tuple.Benches, tuple.Schemes = []workload.Kind{bench}, []core.Scheme{scheme}
			payload, err := json.Marshal(tuple)
			if err != nil {
				return nil, fmt.Errorf("cluster: encoding campaign tuple: %w", err)
			}
			ids = append(ids, co.Enqueue(KindCampaignTuple, payload))
		}
	}
	tuples := make([]*crashcampaign.TupleReport, 0, len(ids))
	for _, id := range ids {
		raw, err := co.Wait(ctx, id)
		if err != nil {
			return nil, fmt.Errorf("cluster: campaign tuple %s: %w", id, err)
		}
		var tr crashcampaign.TupleReport
		if err := json.Unmarshal(raw, &tr); err != nil {
			return nil, fmt.Errorf("cluster: decoding tuple report %s: %w", id, err)
		}
		tuples = append(tuples, &tr)
	}
	return crashcampaign.AssembleReport(c, tuples), nil
}

// RunSim executes one engine job on the cluster and returns its result.
// The coordinator's Publish hook (see PublishToStore) writes the result
// into the shared result store, so repeated submissions are answered
// without re-simulating anywhere.
func RunSim(ctx context.Context, co *Coordinator, j engine.Job) (*engine.Result, error) {
	payload, err := json.Marshal(j)
	if err != nil {
		return nil, fmt.Errorf("cluster: encoding sim work: %w", err)
	}
	raw, err := co.Wait(ctx, co.Enqueue(KindSim, payload))
	if err != nil {
		return nil, err
	}
	var res engine.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, fmt.Errorf("cluster: decoding sim outcome: %w", err)
	}
	return &res, nil
}

// PublishToStore returns a Coordinator Publish hook that writes completed
// KindSim results into the shared result store — the coordinator-side
// half of "workers report, the coordinator publishes". Decode or store
// failures are dropped: the store is a cache, and the worst failure mode
// stays re-simulation.
func PublishToStore(store engine.ResultStore, log *slog.Logger) func(kind string, payload, result json.RawMessage) {
	return func(kind string, payload, result json.RawMessage) {
		if kind != KindSim || store == nil {
			return
		}
		var j engine.Job
		var res engine.Result
		if json.Unmarshal(payload, &j) != nil || json.Unmarshal(result, &res) != nil || res.Report == nil {
			return
		}
		if err := store.Store(j.Fingerprint(), j, &res); err != nil && log != nil {
			log.Warn("publishing worker result", "job", j.String(), "err", err.Error())
		}
	}
}
