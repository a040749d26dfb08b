package enum_test

import (
	"encoding"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/crashcampaign"
	"repro/internal/enum"
	"repro/internal/litmus"
	"repro/internal/workload"
)

// viaText turns an UnmarshalText method into a single-name parser.
func viaText[T any](unmarshal func(*T, []byte) error) func(string) (T, error) {
	return func(name string) (T, error) {
		var v T
		err := unmarshal(&v, []byte(name))
		return v, err
	}
}

// roundTrip checks one enum's names: every value's String resolves back
// to it in any case, through lookup and through UnmarshalText (nil for
// the types that keep an integer encoding, which must then have no text
// encoding at all); an unknown name fails with every valid name listed;
// the invalid names (dropped aliases, and "all" where it is a list
// keyword) do not resolve.
func roundTrip[T interface {
	comparable
	fmt.Stringer
}](t *testing.T, values []T, lookup func(string) (T, error), unmarshal func(*T, []byte) error, invalid ...string) {
	t.Helper()
	for _, v := range values {
		name := v.String()
		for _, spelling := range []string{name, strings.ToUpper(name), strings.ToLower(name)} {
			if got, err := lookup(spelling); err != nil || got != v {
				t.Errorf("lookup(%q) = %v, %v; want %v", spelling, got, err, v)
			}
			if unmarshal == nil {
				continue
			}
			if got, err := viaText(unmarshal)(spelling); err != nil || got != v {
				t.Errorf("UnmarshalText(%q) = %v, %v; want %v", spelling, got, err, v)
			}
		}
		m, ok := any(v).(encoding.TextMarshaler)
		if ok != (unmarshal != nil) {
			t.Errorf("%v implements TextMarshaler: %v, UnmarshalText: %v", v, ok, unmarshal != nil)
		}
		if ok {
			if text, err := m.MarshalText(); err != nil || string(text) != name {
				t.Errorf("MarshalText(%v) = %q, %v; want %q", v, text, err, name)
			}
		}
	}
	_, err := lookup("bogus")
	if err == nil {
		t.Fatal(`lookup("bogus") succeeded`)
	}
	for _, v := range values {
		if !strings.Contains(err.Error(), v.String()) {
			t.Errorf("error %q does not list %q", err, v)
		}
	}
	for _, name := range invalid {
		if got, err := lookup(name); err == nil {
			t.Errorf("lookup(%q) = %v, want an error", name, got)
		}
	}
}

// TestEveryEnumRoundTrips covers the six run-parameter enums.
func TestEveryEnumRoundTrips(t *testing.T) {
	t.Run("benchmark", func(t *testing.T) {
		roundTrip(t, append(workload.Table2[:len(workload.Table2):len(workload.Table2)], workload.LinkedList),
			workload.KindByName, (*workload.Kind).UnmarshalText, "LT", "all", "")
	})
	t.Run("scheme", func(t *testing.T) {
		roundTrip(t, core.Schemes, core.SchemeByName, (*core.Scheme).UnmarshalText, "all", "")
	})
	t.Run("stepper", func(t *testing.T) {
		roundTrip(t, []core.Stepper{core.StepperFast, core.StepperReference},
			viaText((*core.Stepper).UnmarshalText), (*core.Stepper).UnmarshalText, "ref", "")
	})
	t.Run("memory kind", func(t *testing.T) {
		roundTrip(t, []config.MemKind{config.NVMFast, config.NVMSlow, config.DRAM}, config.ParseMemKind, nil, "nvm", "slow", "")
	})
	t.Run("fault", func(t *testing.T) {
		roundTrip(t, crashcampaign.AllFaults, viaText((*crashcampaign.Fault).UnmarshalText), (*crashcampaign.Fault).UnmarshalText, "all", "")
	})
	t.Run("minimize mode", func(t *testing.T) {
		roundTrip(t, []crashcampaign.MinimizeMode{crashcampaign.MinimizeFailed, crashcampaign.MinimizeAll, crashcampaign.MinimizeOff},
			crashcampaign.MinimizeModeByName, nil, "")
	})
}

// TestListParsing covers the list parser behind every list flag and spec:
// "all" expands to the type's default set wherever it appears, blank
// entries and spaces are ignored, and one unknown name fails the list.
func TestListParsing(t *testing.T) {
	safe := core.FailureSafeSchemes()
	clean, torn, adrloss := crashcampaign.FaultClean, crashcampaign.FaultTorn, crashcampaign.FaultADRLoss
	for _, tc := range []struct {
		name string
		got  func() (any, error)
		want any // nil: an error
	}{
		{"benchmarks all", func() (any, error) { return workload.ParseKinds("all") }, workload.Table2},
		{"benchmarks any case", func() (any, error) { return workload.ParseKinds("qe, Ll") }, []workload.Kind{workload.Queue, workload.LinkedList}},
		{"benchmarks unknown", func() (any, error) { return workload.ParseKinds("QE,ZZ") }, nil},
		{"schemes ALL", func() (any, error) { return core.ParseSchemes("ALL") }, safe},
		{"schemes all plus one", func() (any, error) { return core.ParseSchemes("all,PMEM+nolog") }, append(safe[:len(safe):len(safe)], core.PMEMNoLog)},
		{"schemes blanks", func() (any, error) { return core.ParseSchemes(" proteus, ,ATOM ,") }, []core.Scheme{core.Proteus, core.ATOM}},
		{"schemes empty", func() (any, error) { return core.ParseSchemes("") }, []core.Scheme(nil)},
		{"schemes unknown", func() (any, error) { return core.ParseSchemes("Proteus,nope") }, nil},
		{"faults all", func() (any, error) { return crashcampaign.ParseFaults("all, torn") }, crashcampaign.AllFaults},
		{"faults any case", func() (any, error) { return crashcampaign.ParseFaults("Torn,ADRLOSS") }, []crashcampaign.Fault{clean, torn, adrloss}},
		{"faults unknown", func() (any, error) { return crashcampaign.ParseFaults("torn,nope") }, nil},
		{"litmus programs", func() (any, error) { return enum.List("Ps:xy, Pc:x|y", nil, litmus.Parse) }, []litmus.Program{must(litmus.Parse("Ps:xy")), must(litmus.Parse("Pc:x|y"))}},
	} {
		got, err := tc.got()
		switch {
		case tc.want == nil && err == nil:
			t.Errorf("%s: parsed %v, want an error", tc.name, got)
		case tc.want != nil && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != nil && !reflect.DeepEqual(got, tc.want):
			t.Errorf("%s: parsed %v, want %v", tc.name, got, tc.want)
		}
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
