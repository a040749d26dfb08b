package serve

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/crashcampaign"
	"repro/internal/workload"
)

// TestCampaignSpecNames: a campaign spec's lists resolve like
// proteus-crash's flags — "all" is Table 2 × the failure-safe schemes ×
// every fault model, and names match in any case.
func TestCampaignSpecNames(t *testing.T) {
	j, err := compile(Spec{Type: "campaign", Benches: "all", Schemes: "all", Faults: "all"})
	if err != nil {
		t.Fatal(err)
	}
	if c := j.campaign; !slices.Equal(c.Benches, workload.Table2) ||
		!slices.Equal(c.Schemes, core.FailureSafeSchemes()) || !slices.Equal(c.Faults, crashcampaign.AllFaults) {
		t.Fatalf("all/all/all compiled to %v × %v × %v", c.Benches, c.Schemes, c.Faults)
	}
	j, err = compile(Spec{Type: "campaign", Benches: "qe, RT", Schemes: "proteus", Faults: "Torn"})
	if err != nil {
		t.Fatal(err)
	}
	if c := j.campaign; !slices.Equal(c.Benches, []workload.Kind{workload.Queue, workload.RBTree}) ||
		!slices.Equal(c.Schemes, []core.Scheme{core.Proteus}) ||
		!slices.Equal(c.Faults, []crashcampaign.Fault{crashcampaign.FaultClean, crashcampaign.FaultTorn}) {
		t.Fatalf("mixed-case names compiled to %v × %v × %v", c.Benches, c.Schemes, c.Faults)
	}
}
