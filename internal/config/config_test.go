package config

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/isa"
)

func TestDefaultMatchesTable1(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Cores != 4 || c.Core.Width != 5 || c.Core.ROB != 224 {
		t.Fatalf("processor row: %+v", c.Core)
	}
	if c.Core.LoadQ != 72 || c.Core.StoreQ != 56 {
		t.Fatalf("LSQ: %d/%d", c.Core.LoadQ, c.Core.StoreQ)
	}
	if c.L1D.SizeBytes != 32<<10 || c.L1D.Ways != 8 || c.L1D.Latency != 4 {
		t.Fatalf("L1D: %+v", c.L1D)
	}
	if c.L2.SizeBytes != 256<<10 || c.L2.Latency != 12 {
		t.Fatalf("L2: %+v", c.L2)
	}
	if c.L3.SizeBytes != 8<<20 || c.L3.Ways != 16 || c.L3.Latency != 42 {
		t.Fatalf("L3: %+v", c.L3)
	}
	tm := c.Mem.Timing
	if tm.TCAS != 11 || tm.TRCD != 11 || tm.TRP != 11 || tm.TWR != 12 {
		t.Fatalf("DDR timing: %+v", tm)
	}
	if tm.TRCDReadNVM != 29 || tm.TRCDWriteNVM != 109 {
		t.Fatalf("NVM tRCD: %d/%d", tm.TRCDReadNVM, tm.TRCDWriteNVM)
	}
	if c.Mem.Banks != 16 || c.Mem.RowBytes != 2048 {
		t.Fatalf("memory geometry: %+v", c.Mem)
	}
	p := c.Proteus
	if p.LogRegs != 8 || p.LogQ != 16 || p.LLTSize != 64 || p.LLTWays != 8 {
		t.Fatalf("Proteus structures: %+v", p)
	}
	if c.Mem.LPQ != 256 {
		t.Fatalf("LPQ: %d", c.Mem.LPQ)
	}
	if c.Mem.DrainHi != 8 || c.Mem.MaxWPQAge != 48 {
		t.Fatalf("WPQ drain policy: hi=%d age=%d", c.Mem.DrainHi, c.Mem.MaxWPQAge)
	}
}

func TestWithMemKind(t *testing.T) {
	slow := Default().WithMemKind(NVMSlow)
	if slow.Mem.Timing.TRCDWriteNVM <= 109 {
		t.Fatalf("slow NVM write tRCD %d", slow.Mem.Timing.TRCDWriteNVM)
	}
	if slow.Mem.Timing.TRCDReadNVM != 29 {
		t.Fatal("slow NVM changed read latency")
	}
	dram := Default().WithMemKind(DRAM)
	if dram.Mem.Kind != DRAM {
		t.Fatal("kind not set")
	}
	// Round trip back to fast.
	fast := slow.WithMemKind(NVMFast)
	if fast.Mem.Timing.TRCDWriteNVM != 109 {
		t.Fatal("fast restore failed")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.Core.Width = 0 },
		func(c *Config) { c.L1D.Ways = 0 },
		func(c *Config) { c.L2.SizeBytes = 100 }, // non-power-of-two sets
		func(c *Config) { c.Mem.Banks = 0 },
		func(c *Config) { c.Proteus.LogQ = 0 },
		func(c *Config) { c.Proteus.LLTSize = 63 }, // not divisible by ways
		func(c *Config) { c.Proteus.LLTSize = 48 }, // 6 sets: a set mask reaches 4 of them
		func(c *Config) { c.Mem.WPQ = 0 },
		func(c *Config) { c.Mem.DrainHi = -1 },
		func(c *Config) { c.Mem.DrainHi = c.Mem.WPQ + 1 },
		func(c *Config) { c.Mem.MaxWPQAge = 0 },
		func(c *Config) { c.Mem.LPQ = 65536 + 1 },
		func(c *Config) { c.Mem.LPQ = 1<<31 - 1 }, // ~200 GB of LPQ entries
		func(c *Config) { c.Proteus.LogQ = 4096 + 1 },
		func(c *Config) { c.ATOM.InFlight = 0 },
		func(c *Config) { c.Cores = isa.MaxThreads + 1 }, // one log window per thread
		func(c *Config) { c.Core.LoadQ = 0 },
	}
	for i, mutate := range bad {
		c := Default()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestFingerprintStableAndDiscriminating(t *testing.T) {
	a, b := Default(), Default()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("equal configs have different fingerprints")
	}
	if got := len(a.Fingerprint()); got != 16 {
		t.Fatalf("fingerprint length %d, want 16 hex chars", got)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Cores = 8 },
		func(c *Config) { c.Proteus.LogQ = 32 },
		func(c *Config) { c.Mem.LPQ = 128 },
		func(c *Config) { c.Mem.MaxWPQAge = 64 },
		func(c *Config) { c.Mem.DrainHi = 16 },
		func(c *Config) { c.ATOM.InFlight = 8 },
		func(c *Config) { *c = c.WithMemKind(NVMSlow) },
	}
	seen := map[string]int{a.Fingerprint(): -1}
	for i, mutate := range mutations {
		c := Default()
		mutate(&c)
		fp := c.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("mutation %d collides with %d: %s", i, prev, fp)
		}
		seen[fp] = i
	}
}

// TestFingerprintCoversEveryField walks every leaf field of Config by
// reflection and asserts that mutating it changes the fingerprint. The
// fingerprint keys the persistent result store shared across processes,
// so a field the digest misses would silently serve one configuration's
// simulation results for another's.
func TestFingerprintCoversEveryField(t *testing.T) {
	base := Default()
	baseFP := base.Fingerprint()

	var leaves []string
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		if v.Kind() == reflect.Struct {
			for i := 0; i < v.NumField(); i++ {
				f := v.Type().Field(i)
				walk(v.Field(i), path+"."+f.Name)
			}
			return
		}
		leaves = append(leaves, path)
		if !v.CanSet() {
			t.Fatalf("%s: cannot set", path)
		}
		switch v.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Float32, reflect.Float64:
			v.SetFloat(v.Float() + 0.5)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.String:
			v.SetString(v.String() + "x")
		default:
			t.Fatalf("%s: unhandled leaf kind %v — extend the mutator AND check Fingerprint covers it", path, v.Kind())
		}
	}

	rt := reflect.TypeOf(base)
	// Mutate one leaf at a time: re-walk from a fresh Default() and stop
	// the mutation at the target index.
	count := 0
	var countLeaves func(t reflect.Type) int
	countLeaves = func(t reflect.Type) int {
		if t.Kind() != reflect.Struct {
			return 1
		}
		n := 0
		for i := 0; i < t.NumField(); i++ {
			n += countLeaves(t.Field(i).Type)
		}
		return n
	}
	count = countLeaves(rt)
	if count == 0 {
		t.Fatal("no leaf fields found")
	}

	for target := 0; target < count; target++ {
		c := Default()
		idx := 0
		leaves = leaves[:0]
		var mutateNth func(v reflect.Value, path string)
		mutateNth = func(v reflect.Value, path string) {
			if v.Kind() == reflect.Struct {
				for i := 0; i < v.NumField(); i++ {
					mutateNth(v.Field(i), path+"."+v.Type().Field(i).Name)
				}
				return
			}
			if idx == target {
				walk(v, path)
			}
			idx++
		}
		mutateNth(reflect.ValueOf(&c).Elem(), "Config")
		if len(leaves) != 1 {
			t.Fatalf("target %d: mutated %d leaves, want 1", target, len(leaves))
		}
		if fp := c.Fingerprint(); fp == baseFP {
			t.Errorf("mutating %s did not change the fingerprint", leaves[0])
		}
	}
	if idxWant := count; idxWant < 30 {
		t.Fatalf("only %d leaf fields found — reflection walk looks broken", idxWant)
	}
}

// TestEveryLeafIsBounded walks every leaf of Config, as
// TestFingerprintCoversEveryField does, and requires Validate to refuse an
// absurd value of it by name: -1 and 2^31-1 (2^40 for a cache size) for an
// integer leaf, 0, -1, NaN and +Inf for a float. NewSystem allocates and
// ticks at these sizes, and a cluster payload carries the whole Config, so
// a leaf without a bound lets one payload exhaust a worker. No System is
// built.
func TestEveryLeafIsBounded(t *testing.T) {
	base := Default()
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	paths, leaves := leafValues(&base)
	for i, path := range paths {
		var absurd []any
		switch v := leaves[i]; v.Kind() {
		case reflect.Int:
			huge := int64(1<<31 - 1)
			if strings.HasSuffix(path, ".SizeBytes") {
				huge = 1 << 40
			}
			absurd = []any{int64(-1), huge}
		case reflect.Float64:
			absurd = []any{0.0, -1.0, math.NaN(), math.Inf(1)}
		default:
			t.Errorf("%s: %v leaf has no absurd values here; give it a bound and a case", path, v.Kind())
			continue
		}
		leaf := strings.TrimPrefix(path, "Config.")
		for _, a := range absurd {
			c := Default()
			_, vals := leafValues(&c)
			switch a := a.(type) {
			case int64:
				vals[i].SetInt(a)
			case float64:
				vals[i].SetFloat(a)
			}
			err := c.Validate()
			if err == nil {
				t.Errorf("%s = %v accepted", leaf, a)
			} else if !strings.Contains(err.Error(), leaf) {
				t.Errorf("%s = %v refused for another leaf: %v", leaf, a, err)
			}
		}
	}
}

// leafValues returns the leaf fields of *c, depth first, as settable
// values with their dotted paths.
func leafValues(c *Config) (paths []string, vals []reflect.Value) {
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		if v.Kind() == reflect.Struct {
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
			return
		}
		paths, vals = append(paths, path), append(vals, v)
	}
	walk(reflect.ValueOf(c).Elem(), "Config")
	return paths, vals
}
