package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from benchmark code into a layer's public
// function. Spans are kept in memory and written as JSONL when the run
// ends; nothing inside the program is instrumented.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Alloc is the bytes allocated while the span was open. It is only
	// recorded by single-goroutine passes, where the process-wide counter
	// belongs to the span alone.
	Alloc uint64 `json:"alloc_bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans. Start and End are nanoseconds since the tracer
// was created.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// openSpan is a span in progress.
type openSpan struct {
	t      *tracer
	s      span
	allocs bool
	alloc0 uint64
}

// begin opens a span under parent (0 for a root). With allocs set it also
// samples the process allocation counter, which is only meaningful when no
// other goroutine allocates while the span is open. On a nil tracer it
// records nothing and returns a nil span, whose methods do nothing: that is
// how a pass runs untraced, as the baseline for the tracing overhead.
func (t *tracer) begin(parent int64, layer, name string, allocs bool) *openSpan {
	if t == nil {
		return nil
	}
	o := &openSpan{t: t, allocs: allocs}
	t.mu.Lock()
	o.s = span{ID: int64(len(t.spans)) + 1, Parent: parent, Name: name, Layer: layer}
	// Reserve the ID now so children opened before end get larger IDs.
	t.spans = append(t.spans, span{})
	t.mu.Unlock()
	if allocs {
		o.alloc0 = totalAlloc()
	}
	o.s.Start = t.now()
	return o
}

// id is the span's identifier, the parent of spans opened inside it.
func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// end closes the span, records it and returns its duration.
func (o *openSpan) end() time.Duration {
	if o == nil {
		return 0
	}
	o.s.End = o.t.now()
	if o.allocs {
		o.s.Alloc = totalAlloc() - o.alloc0
	}
	o.t.mu.Lock()
	o.t.spans[o.s.ID-1] = o.s
	o.t.mu.Unlock()
	return o.s.dur()
}

// record adds an already-timed span, such as an engine job bracketed by
// its progress events.
func (t *tracer) record(parent int64, layer, name string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: int64(len(t.spans)) + 1, Parent: parent, Name: name, Layer: layer,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	t.mu.Unlock()
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// nameStats aggregates the spans of one name.
type nameStats struct {
	count int
	total time.Duration // sum of durations
	self  time.Duration // sum of durations minus time covered by children
	alloc uint64        // self allocation
	durs  []time.Duration
}

// profile is the per-name and per-layer breakdown of a set of spans.
type profile struct {
	byName  map[string]*nameStats
	byLayer map[string]time.Duration // self time
	spans   int
}

// mark returns a position in the span log; profileSince covers the spans
// opened after it, which is how one pass of a traced run is profiled on
// its own.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// profileSince computes self times over the spans opened after mark: a
// span's duration minus the durations of its children. Children of one
// span run one after another on the same goroutine, so their durations
// never overlap.
func (t *tracer) profileSince(mark int) profile {
	t.mu.Lock()
	defer t.mu.Unlock()
	childDur := make([]time.Duration, len(t.spans)+1)
	childAlloc := make([]uint64, len(t.spans)+1)
	for _, s := range t.spans[mark:] {
		if s.ID > 0 && s.Parent > 0 {
			childDur[s.Parent] += s.dur()
			childAlloc[s.Parent] += s.Alloc
		}
	}
	p := profile{byName: map[string]*nameStats{}, byLayer: map[string]time.Duration{}}
	for _, s := range t.spans[mark:] {
		if s.ID == 0 {
			continue // opened but never ended: the pass failed
		}
		p.spans++
		ns := p.byName[s.Name]
		if ns == nil {
			ns = &nameStats{}
			p.byName[s.Name] = ns
		}
		self := s.dur() - childDur[s.ID]
		ns.count++
		ns.total += s.dur()
		ns.self += self
		ns.durs = append(ns.durs, s.dur())
		if s.Alloc > childAlloc[s.ID] {
			ns.alloc += s.Alloc - childAlloc[s.ID]
		}
		p.byLayer[s.Layer] += self
	}
	return p
}

// name returns the stats for a span name (zero when no span has it).
func (p profile) name(n string) nameStats {
	if ns := p.byName[n]; ns != nil {
		return *ns
	}
	return nameStats{}
}

// prefixTotal sums the durations of every span whose name starts with
// prefix.
func (p profile) prefixTotal(prefix string) time.Duration {
	var sum time.Duration
	for n, ns := range p.byName {
		if strings.HasPrefix(n, prefix) {
			sum += ns.total
		}
	}
	return sum
}

// quantileMS returns the q-quantile of the named spans' durations in
// milliseconds.
func (p profile) quantileMS(n string, q float64) float64 {
	return quantile(durationsMS(p.name(n).durs), q)
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// programSelf sums the self time of every layer except the benchmark's own
// glue ("bench").
func (p profile) programSelf() time.Duration {
	var sum time.Duration
	for layer, d := range p.byLayer {
		if layer != layerBench {
			sum += d
		}
	}
	return sum
}

// writeJSONL writes the spans, ordered by ID, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	for _, s := range spans {
		if s.ID == 0 {
			continue
		}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Layer names used in spans. Each is a package of the program, except
// layerBench, the benchmark's own glue between calls.
const (
	layerBench         = "bench"
	layerWorkload      = "workload"
	layerLogging       = "logging"
	layerCore          = "core"
	layerEngine        = "engine"
	layerCrashCampaign = "crashcampaign"
	layerRecovery      = "recovery"
	layerLitmus        = "litmus"
	layerResultStore   = "resultstore"
	layerLedger        = "ledger"
	layerServe         = "serve"
)
