package serve

import (
	"reflect"
	"slices"
	"strings"
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

// TestCampaignFingerprintCoversEveryField: submissions that share a
// fingerprint share one task, so every crashcampaign.Config field that
// travels (all but those tagged json:"-"), found by reflection so a new
// field is covered too, must change the campaign fingerprint.
func TestCampaignFingerprintCoversEveryField(t *testing.T) {
	base, err := compile(Spec{Type: "campaign"})
	if err != nil {
		t.Fatal(err)
	}
	var walk func(path string, index []int, typ reflect.Type)
	walk = func(path string, index []int, typ reflect.Type) {
		if typ.Kind() == reflect.Struct {
			for i := 0; i < typ.NumField(); i++ {
				if f := typ.Field(i); f.IsExported() && f.Tag.Get("json") != "-" {
					walk(strings.TrimPrefix(path+"."+f.Name, "."), append(slices.Clone(index), i), f.Type)
				}
			}
			return
		}
		j := *base
		v := reflect.ValueOf(&j.campaign).Elem().FieldByIndex(index)
		switch {
		case v.Kind() == reflect.Slice:
			v.Set(reflect.Append(v, reflect.Zero(typ.Elem())))
		case v.CanInt():
			v.SetInt(v.Int() + 1)
		case v.CanFloat():
			v.SetFloat(v.Float() + 1)
		case v.Kind() == reflect.Bool:
			v.SetBool(!v.Bool())
		case v.Kind() == reflect.String:
			v.SetString(v.String() + "x")
		default:
			t.Fatalf("campaign field %s: no change for kind %v", path, v.Kind())
		}
		if j.fingerprint() == base.fingerprint() {
			t.Errorf("campaign field %s does not change the fingerprint", path)
		}
	}
	walk("", nil, reflect.TypeOf(crashcampaign.Config{}))
}
