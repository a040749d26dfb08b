package cluster

import (
	"bytes"
	"context"
	"encoding"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/crashcampaign"
	"repro/internal/engine"
	"repro/internal/logging"
	"repro/internal/resultstore"
	"repro/internal/workload"
)

// TestWireBytesMatchGolden pins the bytes a run's name and result take on
// the wire and on disk for fixed inputs: the sim and campaign-tuple
// payloads the coordinator hands out (and the item IDs derived from
// them), the sim result a worker reports, and the result a store entry
// carries with its digest. Every payload is produced by the same calls
// production makes — RunSim, RunCampaign, executeItem, Store — so the
// test reads the same whichever types those calls encode through.
func TestWireBytesMatchGolden(t *testing.T) {
	cfg := config.Default().WithMemKind(config.NVMSlow)
	cfg.Cores = 1
	j := engine.Job{
		Kind:   workload.Queue,
		Params: workload.Params{Threads: 1, InitOps: 64, SimOps: 8, Seed: 5},
		Scheme: core.ProteusNoLWR,
		Config: cfg,
		Log:    logging.Options{StaticLogElim: true},
	}
	camp := crashcampaign.Config{
		Benches:  []workload.Kind{workload.HashMap},
		Schemes:  []core.Scheme{core.ProteusNoLWR},
		Params:   workload.Params{Threads: 1, InitOps: 32, SimOps: 4, Seed: 9, SSItems: 16, SSStrSize: 16, ListNodes: 2, ListElems: 8},
		Sim:      cfg,
		Sweep:    4,
		Rand:     2,
		Faults:   crashcampaign.AllFaults,
		Seed:     3,
		Minimize: crashcampaign.MinimizeAll,
	}

	// A cancelled context makes RunSim and RunCampaign return right after
	// enqueueing, leaving their payloads for a lease to collect.
	co := NewCoordinator(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunSim(ctx, co, j); err == nil {
		t.Fatal("RunSim on a cancelled context succeeded")
	}
	if _, err := RunCampaign(ctx, co, camp); err == nil {
		t.Fatal("RunCampaign on a cancelled context succeeded")
	}
	if err := co.Register("w"); err != nil {
		t.Fatal(err)
	}
	items, err := co.Lease("w", 8)
	if err != nil || len(items) != 2 {
		t.Fatalf("lease = (%v, %v), want the sim and the tuple item", items, err)
	}
	sim, tuple := items[0], items[1]
	if sim.Kind != KindSim || tuple.Kind != KindCampaignTuple {
		t.Fatalf("leased kinds %q, %q", sim.Kind, tuple.Kind)
	}

	eng := engine.New(engine.Config{Workers: 1})
	simResult, err := executeItem(context.Background(), eng, sim)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	st, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := j.Fingerprint()
	if err := st.Store(key, j, res); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(st.Dir(), key[:2], key+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var entry struct {
		Key    string          `json:"key"`
		Job    string          `json:"job"`
		Digest string          `json:"digest"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(raw, &entry); err != nil {
		t.Fatal(err)
	}
	entryDigest, err := resultstore.EntryDigest(res)
	if err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	for _, l := range [][2]string{
		{"sim item", sim.ID},
		{"sim payload", string(sim.Payload)},
		{"sim result", string(simResult)},
		{"tuple item", tuple.ID},
		{"tuple payload", string(tuple.Payload)},
		{"store key", entry.Key},
		{"store job", entry.Job},
		{"store result", string(entry.Result)},
		{"store digest", entry.Digest},
		{"entry digest", entryDigest},
	} {
		fmt.Fprintf(&got, "%s: %s\n", l[0], l[1])
	}
	want, err := os.ReadFile(filepath.Join("testdata", "wire.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("wire bytes differ from testdata/wire.golden:\n got: %s\nwant: %s", got.Bytes(), want)
	}
}

// TestCampaignTupleTravelsWhole: a campaign-tuple payload carries the
// whole campaign. Every crashcampaign.Config field its encoding carries
// (found by reflection, so a new field is covered too) is set to a
// non-zero value; the config goes out through RunCampaign and must come
// back, decoded as a worker decodes it, equal to the normalized config
// narrowed to its one tuple.
func TestCampaignTupleTravelsWhole(t *testing.T) {
	var c crashcampaign.Config
	n := 1
	fillLeaves(t, "Config", reflect.ValueOf(&c).Elem(), &n)
	want := c
	want.Normalize()

	co := NewCoordinator(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCampaign(ctx, co, c); err == nil {
		t.Fatal("RunCampaign on a cancelled context succeeded")
	}
	items, err := co.Lease("w", 8)
	if err != nil || len(items) != 1 {
		t.Fatalf("lease = (%v, %v), want the one tuple item", items, err)
	}
	got, err := decodeTuple(items[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("campaign tuple decodes to\n%+v\nwant\n%+v", got, want)
	}
}

// fillLeaves sets every leaf under v that JSON carries (fields tagged
// json:"-" stay zero) to a non-zero value: 1 for a type that decodes
// from a name, so it names a valid value, and a distinct count for any
// other number. A slice gets one filled element.
func fillLeaves(t *testing.T, path string, v reflect.Value, n *int) {
	t.Helper()
	*n++
	if _, named := v.Addr().Interface().(encoding.TextUnmarshaler); named && v.CanInt() {
		v.SetInt(1)
		return
	}
	switch {
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() && f.Tag.Get("json") != "-" {
				fillLeaves(t, path+"."+f.Name, v.Field(i), n)
			}
		}
	case v.Kind() == reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillLeaves(t, path+"[0]", v.Index(0), n)
	case v.CanInt():
		v.SetInt(int64(*n))
	case v.CanFloat():
		v.SetFloat(float64(*n) + 0.5)
	case v.Kind() == reflect.Bool:
		v.SetBool(true)
	case v.Kind() == reflect.String:
		v.SetString(fmt.Sprint(*n))
	default:
		t.Fatalf("%s: no non-zero value for kind %v", path, v.Kind())
	}
}

// TestTuplePayloadNamesOneTuple: a campaign-tuple payload that names no
// bench or scheme, or two, fails the attempt with an error; the worker
// does not panic.
func TestTuplePayloadNamesOneTuple(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 1})
	for _, tc := range []struct {
		name string
		edit func(*crashcampaign.Config)
	}{
		{"no bench", func(c *crashcampaign.Config) { c.Benches = nil }},
		{"two benches", func(c *crashcampaign.Config) { c.Benches = []workload.Kind{workload.Queue, workload.HashMap} }},
		{"no scheme", func(c *crashcampaign.Config) { c.Schemes = nil }},
		{"two schemes", func(c *crashcampaign.Config) { c.Schemes = []core.Scheme{core.PMEM, core.ATOM} }},
	} {
		c := testCampaign()
		c.Benches, c.Schemes = c.Benches[:1], c.Schemes[:1]
		tc.edit(&c)
		payload, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		_, err = executeItem(context.Background(), eng, Item{Kind: KindCampaignTuple, Payload: payload})
		if err == nil || !strings.Contains(err.Error(), "want one of each") {
			t.Errorf("%s: executeItem = %v, want the one-tuple refusal", tc.name, err)
		}
	}
}
