package core_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/logging"
	"repro/internal/workload"
)

// smallRun names a run a setting must move: a Table 2 benchmark at a
// few hundred operations per thread, under one scheme.
type smallRun struct {
	kind   workload.Kind
	scheme core.Scheme
}

// settingCase is one config leaf's mutation, made on the guard's base
// machine (after base, if set), and the run whose report it must change.
type settingCase struct {
	run    smallRun
	base   func(*config.Config)
	mutate func(*config.Config)
}

var (
	qePMEM    = smallRun{workload.Queue, core.PMEM}
	hmPMEM    = smallRun{workload.HashMap, core.PMEM}
	qeProteus = smallRun{workload.Queue, core.Proteus}
	qeATOM    = smallRun{workload.Queue, core.ATOM}
	rtProteus = smallRun{workload.RBTree, core.Proteus}
)

// Base machines for the leaves a small run on the default machine does
// not observe: its working set fits the L1, so the L2 and L3 matter only
// below a tiny L1 (and L2), and the LLT's geometry shows only from a
// direct-mapped or one-set LLT.
func tinyL1(c *config.Config)    { c.L1D.SizeBytes = 512 }
func tinyL1L2(c *config.Config)  { c.L1D.SizeBytes, c.L2.SizeBytes = 512, 512 }
func directLLT(c *config.Config) { c.Proteus.LLTWays = 1 }
func tinyLLT(c *config.Config)   { c.Proteus.LLTSize = 8 }

// settingCases holds one case per leaf of config.Config, keyed by its
// path as the walk below spells it.
var settingCases = map[string]settingCase{
	"Config.Cores":                   {run: qePMEM, mutate: func(c *config.Config) { c.Cores = 1 }},
	"Config.Core.Width":              {run: qePMEM, mutate: func(c *config.Config) { c.Core.Width = 2 }},
	"Config.Core.ROB":                {run: qePMEM, mutate: func(c *config.Config) { c.Core.ROB = 16 }},
	"Config.Core.LoadQ":              {run: qePMEM, mutate: func(c *config.Config) { c.Core.LoadQ = 1 }},
	"Config.Core.StoreQ":             {run: qePMEM, mutate: func(c *config.Config) { c.Core.StoreQ = 1 }},
	"Config.Core.StoreBuf":           {run: qePMEM, mutate: func(c *config.Config) { c.Core.StoreBuf = 1 }},
	"Config.Core.AluPerMem":          {run: qePMEM, mutate: func(c *config.Config) { c.Core.AluPerMem = 8 }},
	"Config.Core.AluPerTxn":          {run: qePMEM, mutate: func(c *config.Config) { c.Core.AluPerTxn = 100 }},
	"Config.L1D.SizeBytes":           {run: hmPMEM, mutate: func(c *config.Config) { c.L1D.SizeBytes = 512 }},
	"Config.L1D.Ways":                {run: hmPMEM, mutate: func(c *config.Config) { c.L1D.Ways = 1 }},
	"Config.L1D.Latency":             {run: qePMEM, mutate: func(c *config.Config) { c.L1D.Latency = 8 }},
	"Config.L2.SizeBytes":            {run: hmPMEM, base: tinyL1, mutate: func(c *config.Config) { c.L2.SizeBytes = 512 }},
	"Config.L2.Ways":                 {run: hmPMEM, base: tinyL1, mutate: func(c *config.Config) { c.L2.Ways = 1 }},
	"Config.L2.Latency":              {run: hmPMEM, base: tinyL1, mutate: func(c *config.Config) { c.L2.Latency = 24 }},
	"Config.L3.SizeBytes":            {run: hmPMEM, base: tinyL1L2, mutate: func(c *config.Config) { c.L3.SizeBytes = 1024 }},
	"Config.L3.Ways":                 {run: hmPMEM, base: tinyL1L2, mutate: func(c *config.Config) { c.L3.Ways = 1 }},
	"Config.L3.Latency":              {run: qePMEM, mutate: func(c *config.Config) { c.L3.Latency = 60 }},
	"Config.Mem.Kind":                {run: qePMEM, mutate: func(c *config.Config) { c.Mem.Kind = config.DRAM }},
	"Config.Mem.Banks":               {run: qePMEM, mutate: func(c *config.Config) { c.Mem.Banks = 2 }},
	"Config.Mem.RowBytes":            {run: qePMEM, mutate: func(c *config.Config) { c.Mem.RowBytes = 256 }},
	"Config.Mem.ClockRatio":          {run: qePMEM, mutate: func(c *config.Config) { c.Mem.ClockRatio = 2.5 }},
	"Config.Mem.Timing.TCAS":         {run: qePMEM, mutate: func(c *config.Config) { c.Mem.Timing.TCAS = 22 }},
	"Config.Mem.Timing.TRCD":         {run: qePMEM, mutate: func(c *config.Config) { c.Mem.Timing.TRCD = 22 }},
	"Config.Mem.Timing.TRP":          {run: qePMEM, mutate: func(c *config.Config) { c.Mem.Timing.TRP = 22 }},
	"Config.Mem.Timing.TWR":          {run: qePMEM, mutate: func(c *config.Config) { c.Mem.Timing.TWR = 24 }},
	"Config.Mem.Timing.TRCDReadNVM":  {run: qePMEM, mutate: func(c *config.Config) { c.Mem.Timing.TRCDReadNVM = 58 }},
	"Config.Mem.Timing.TRCDWriteNVM": {run: qePMEM, mutate: func(c *config.Config) { c.Mem.Timing.TRCDWriteNVM = 245 }},
	"Config.Mem.L3ToMC":              {run: qePMEM, mutate: func(c *config.Config) { c.Mem.L3ToMC = 30 }},
	"Config.Mem.ReadQ":               {run: qePMEM, mutate: func(c *config.Config) { c.Mem.ReadQ = 1 }},
	"Config.Mem.WPQ":                 {run: qePMEM, mutate: func(c *config.Config) { c.Mem.WPQ = 8 }},
	"Config.Mem.LPQ":                 {run: qeProteus, mutate: func(c *config.Config) { c.Mem.LPQ = 1 }},
	"Config.Mem.DrainHi":             {run: qePMEM, mutate: func(c *config.Config) { c.Mem.DrainHi = 64 }},
	"Config.Mem.MaxWPQAge":           {run: qePMEM, mutate: func(c *config.Config) { c.Mem.MaxWPQAge = 500 }},
	"Config.Proteus.LogRegs":         {run: qeProteus, mutate: func(c *config.Config) { c.Proteus.LogRegs = 1 }},
	"Config.Proteus.LogQ":            {run: qeProteus, mutate: func(c *config.Config) { c.Proteus.LogQ = 1 }},
	"Config.Proteus.LLTSize":         {run: rtProteus, base: directLLT, mutate: func(c *config.Config) { c.Proteus.LLTSize = 1 }},
	"Config.Proteus.LLTWays":         {run: rtProteus, base: tinyLLT, mutate: func(c *config.Config) { c.Proteus.LLTWays = 1 }},
	"Config.ATOM.MCTrackEntries":     {run: qeATOM, mutate: func(c *config.Config) { c.ATOM.MCTrackEntries = 1 }},
	"Config.ATOM.InFlight":           {run: qeATOM, mutate: func(c *config.Config) { c.ATOM.InFlight = 1 }},
}

// optionRuns names, per non-default logging.Options value, the run it
// must move.
var optionRuns = map[string]smallRun{
	"Options.Model=strict":       qePMEM,
	"Options.StaticLogElim=true": qeProteus,
}

// TestEverySettingChangesARun: each leaf of config.Config and each
// non-default logging.Options value must change the stats.Report of a
// small run. A setting no run observes splits memo and store keys
// (Fingerprint hashes every leaf) and promises a model the simulator does
// not have. A leaf or value without a case fails, so a new setting must
// name the run that shows it.
func TestEverySettingChangesARun(t *testing.T) {
	base := config.Default()
	base.Cores = 2

	type check struct {
		name             string
		run              smallRun
		from, to         config.Config
		fromOpts, toOpts logging.Options
	}
	var checks []check
	seen := map[string]bool{}
	for _, path := range configLeaves(reflect.TypeOf(base), "Config") {
		seen[path] = true
		tc, ok := settingCases[path]
		if !ok {
			t.Errorf("%s: no case names a mutation and the run it must change", path)
			continue
		}
		from := base
		if tc.base != nil {
			tc.base(&from)
		}
		to := from
		tc.mutate(&to)
		if changed := diffLeaves(from, to); len(changed) != 1 || changed[0] != path {
			t.Errorf("%s: the mutation changes %v, want exactly this leaf", path, changed)
			continue
		}
		if err := to.Validate(); err != nil {
			t.Errorf("%s: Validate rejects the mutation: %v", path, err)
			continue
		}
		checks = append(checks, check{name: path, run: tc.run, from: from, to: to})
	}
	for _, v := range optionValues(t) {
		seen[v.name] = true
		run, ok := optionRuns[v.name]
		if !ok {
			t.Errorf("%s: no run names what this option value must change", v.name)
			continue
		}
		checks = append(checks, check{name: v.name, run: run, from: base, to: base, toOpts: v.opts})
	}
	for name := range settingCases {
		if !seen[name] {
			t.Errorf("case %s names no config leaf", name)
		}
	}
	for name := range optionRuns {
		if !seen[name] {
			t.Errorf("run %s names no logging.Options value", name)
		}
	}

	eng := engine.New(engine.Config{Workers: 2})
	job := func(r smallRun, cfg config.Config, opts logging.Options) engine.Job {
		p := r.kind.DefaultParams(400)
		p.Threads = cfg.Cores
		return engine.Job{Kind: r.kind, Scheme: r.scheme, Params: p, Config: cfg, Log: opts}
	}
	for _, c := range checks {
		from, err := eng.Run(context.Background(), job(c.run, c.from, c.fromOpts))
		if err != nil {
			t.Fatal(err)
		}
		to, err := eng.Run(context.Background(), job(c.run, c.to, c.toOpts))
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(from.Report, to.Report) {
			t.Errorf("%s: %v/%v report unchanged; the setting moves no run", c.name, c.run.kind, c.run.scheme)
		}
	}
}

// configLeaves lists the non-struct fields of t, depth first, as
// dotted paths under root.
func configLeaves(t reflect.Type, root string) []string {
	if t.Kind() != reflect.Struct {
		return []string{root}
	}
	var out []string
	for i := 0; i < t.NumField(); i++ {
		out = append(out, configLeaves(t.Field(i).Type, root+"."+t.Field(i).Name)...)
	}
	return out
}

// diffLeaves lists the leaf paths at which a and b differ.
func diffLeaves(a, b config.Config) []string {
	var out []string
	var walk func(x, y reflect.Value, path string)
	walk = func(x, y reflect.Value, path string) {
		if x.Kind() == reflect.Struct {
			for i := 0; i < x.NumField(); i++ {
				walk(x.Field(i), y.Field(i), path+"."+x.Type().Field(i).Name)
			}
			return
		}
		if !x.Equal(y) {
			out = append(out, path)
		}
	}
	walk(reflect.ValueOf(a), reflect.ValueOf(b), "Config")
	return out
}

type optionValue struct {
	name string
	opts logging.Options
}

// optionValues lists every non-default value of each logging.Options
// field, the rest left at zero: true for a flag, and for an enum every
// value whose String is a name rather than the numeric fallback.
func optionValues(t *testing.T) []optionValue {
	var out []optionValue
	ot := reflect.TypeOf(logging.Options{})
	for i := 0; i < ot.NumField(); i++ {
		f := ot.Field(i)
		set := func(name string, v reflect.Value) {
			var o logging.Options
			reflect.ValueOf(&o).Elem().Field(i).Set(v)
			out = append(out, optionValue{fmt.Sprintf("Options.%s=%s", f.Name, name), o})
		}
		switch f.Type.Kind() {
		case reflect.Bool:
			set("true", reflect.ValueOf(true))
		case reflect.Int:
			for n := int64(1); ; n++ {
				v := reflect.New(f.Type).Elem()
				v.SetInt(n)
				name := fmt.Sprint(v.Interface())
				if strings.HasPrefix(name, f.Type.Name()+"(") {
					break
				}
				set(name, v)
			}
		default:
			t.Fatalf("logging.Options.%s: unhandled kind %v; extend the walk", f.Name, f.Type.Kind())
		}
	}
	return out
}
