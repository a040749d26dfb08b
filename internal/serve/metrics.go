package serve

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
)

// serverMetrics holds the serving-layer counters exported at /metrics in
// Prometheus text format alongside the engine and result-store counters.
// Everything is hand-rolled atomics: the repo takes no dependency on a
// metrics client library.
type serverMetrics struct {
	requests      atomic.Uint64
	jobsDone      atomic.Uint64
	jobsFailed    atomic.Uint64
	jobsCancelled atomic.Uint64
	jobsMerged    atomic.Uint64
	jobsRejected  atomic.Uint64
	queueDepth    atomic.Int64

	// queuedByType breaks the admission-queue depth down per job kind
	// ("sim", "figure", "campaign") — the autoscaling signal: a deep
	// campaign backlog wants more cluster workers, a deep sim backlog
	// wants more serve workers.
	queuedMu     sync.Mutex
	queuedByType map[string]int64

	requestSeconds histogram
	jobSeconds     histogram
}

// addQueuedByType adjusts the per-kind queue depth; it mirrors every
// queueDepth transition (admit, dequeue-to-run, cancel-while-queued).
func (m *serverMetrics) addQueuedByType(typ string, delta int64) {
	m.queuedMu.Lock()
	if m.queuedByType == nil {
		m.queuedByType = make(map[string]int64)
	}
	m.queuedByType[typ] += delta
	m.queuedMu.Unlock()
}

// queuedByTypeSnapshot returns the per-kind depths with stable key order.
func (m *serverMetrics) queuedByTypeSnapshot() (types []string, depths map[string]int64) {
	m.queuedMu.Lock()
	depths = make(map[string]int64, len(m.queuedByType))
	for k, v := range m.queuedByType {
		depths[k] = v
		types = append(types, k)
	}
	m.queuedMu.Unlock()
	sort.Strings(types)
	return types, depths
}

// histBuckets are the latency histogram upper bounds in seconds: tight
// sub-millisecond buckets for cache-hit requests, coarse multi-second
// ones for cold figure suites and campaigns.
var histBuckets = [...]float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 5, 30, 120, 600}

// histogram is a fixed-bucket cumulative histogram safe for concurrent
// observation. sumMicros keeps the running sum in integer microseconds so
// it can live in an atomic.
type histogram struct {
	counts    [len(histBuckets) + 1]atomic.Uint64 // +1 for +Inf
	count     atomic.Uint64
	sumMicros atomic.Uint64
}

func (h *histogram) observe(seconds float64) {
	i := sort.SearchFloat64s(histBuckets[:], seconds)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumMicros.Add(uint64(seconds * 1e6))
}

// write emits the histogram in Prometheus exposition format.
func (h *histogram) write(w *metricsWriter, name string) {
	w.typ(name, "histogram")
	var cum uint64
	for i, le := range histBuckets[:] {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, strconv.FormatFloat(le, 'g', -1, 64), cum)
	}
	cum += h.counts[len(histBuckets)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.sumMicros.Load())/1e6)
	fmt.Fprintf(w, "%s_count %d\n", name, h.count.Load())
}

// metricsWriter accumulates the exposition body.
type metricsWriter struct {
	http.ResponseWriter
}

func (w *metricsWriter) typ(name, kind string) {
	fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
}

func (w *metricsWriter) counter(name string, v uint64) {
	w.typ(name, "counter")
	fmt.Fprintf(w, "%s %d\n", name, v)
}

func (w *metricsWriter) gauge(name string, v float64) {
	w.typ(name, "gauge")
	if math.IsNaN(v) {
		fmt.Fprintf(w, "%s NaN\n", name)
		return
	}
	fmt.Fprintf(w, "%s %g\n", name, v)
}

// handleMetrics renders every layer's counters: HTTP, queue, engine and
// result store.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	mw := &metricsWriter{ResponseWriter: w}

	// Serving layer.
	mw.counter("proteus_serve_requests_total", s.metrics.requests.Load())
	mw.counter("proteus_serve_jobs_done_total", s.metrics.jobsDone.Load())
	mw.counter("proteus_serve_jobs_failed_total", s.metrics.jobsFailed.Load())
	mw.counter("proteus_serve_jobs_cancelled_total", s.metrics.jobsCancelled.Load())
	mw.counter("proteus_serve_jobs_merged_total", s.metrics.jobsMerged.Load())
	mw.counter("proteus_serve_jobs_rejected_total", s.metrics.jobsRejected.Load())
	mw.gauge("proteus_serve_queue_depth", float64(s.metrics.queueDepth.Load()))
	if types, depths := s.metrics.queuedByTypeSnapshot(); len(types) > 0 {
		mw.typ("proteus_serve_queue_depth_by_type", "gauge")
		for _, typ := range types {
			fmt.Fprintf(mw, "proteus_serve_queue_depth_by_type{type=%q} %d\n", typ, depths[typ])
		}
	}
	mw.gauge("proteus_serve_queue_capacity", float64(s.conf.QueueDepth))
	draining := 0.0
	if s.Draining() {
		draining = 1
	}
	mw.gauge("proteus_serve_draining", draining)
	s.metrics.requestSeconds.write(mw, "proteus_serve_request_duration_seconds")
	s.metrics.jobSeconds.write(mw, "proteus_serve_job_duration_seconds")

	// Engine.
	ec := s.conf.Engine.Counters()
	mw.counter("proteus_engine_simulated_total", ec.Simulated)
	mw.counter("proteus_engine_deduped_total", ec.Deduped)
	mw.counter("proteus_engine_workloads_built_total", ec.WorkloadsBuilt)
	mw.counter("proteus_engine_failed_total", ec.Failed)
	mw.counter("proteus_engine_store_hits_total", ec.StoreHits)
	mw.counter("proteus_engine_store_errors_total", ec.StoreErrors)

	// Result store: hit ratio over this process's lookups.
	if s.conf.Store != nil {
		sc := s.conf.Store.Counters()
		mw.counter("proteus_store_hits_total", sc.Hits)
		mw.counter("proteus_store_misses_total", sc.Misses)
		mw.counter("proteus_store_writes_total", sc.Writes)
		mw.counter("proteus_store_errors_total", sc.Errors)
		mw.counter("proteus_store_corrupt_total", sc.Corrupt)
		mw.counter("proteus_store_quarantined_total", sc.Quarantined)
		ratio := math.NaN()
		if tot := sc.Hits + sc.Misses; tot > 0 {
			ratio = float64(sc.Hits) / float64(tot)
		}
		mw.gauge("proteus_store_cache_hit_ratio", ratio)
	}

	// Provenance ledger: chain tip shape plus batcher throughput — the
	// sealed/submitted gap is the current unflushed backlog.
	if s.conf.Ledger != nil {
		h := s.conf.Ledger.Head()
		mw.gauge("proteus_ledger_records", float64(h.Records))
		mw.gauge("proteus_ledger_leaves", float64(h.Leaves))
	}
	if s.conf.Admissions != nil {
		bc := s.conf.Admissions.Counters()
		mw.counter("proteus_ledger_leaves_submitted_total", bc.Submitted)
		mw.counter("proteus_ledger_leaves_sealed_total", bc.Sealed)
		mw.counter("proteus_ledger_batches_sealed_total", bc.Batches)
		mw.counter("proteus_ledger_seal_errors_total", bc.Errors)
	}

	// Cluster coordinator: queue states, failure/requeue counters and
	// per-worker gauges (leased, completed, requeued, lease expiries).
	if s.conf.Cluster != nil {
		cs := s.conf.Cluster.Stats()
		mw.gauge("proteus_cluster_items_pending", float64(cs.Pending))
		mw.gauge("proteus_cluster_items_leased", float64(cs.Leased))
		mw.gauge("proteus_cluster_items_done", float64(cs.Done))
		mw.gauge("proteus_cluster_items_quarantined", float64(cs.Quarantined))
		mw.gauge("proteus_cluster_workers", float64(len(cs.Workers)))
		mw.counter("proteus_cluster_leases_granted_total", cs.LeasesGranted)
		mw.counter("proteus_cluster_lease_expired_total", cs.LeaseExpired)
		mw.counter("proteus_cluster_requeued_total", cs.Requeued)
		mw.counter("proteus_cluster_completed_total", cs.Completed)
		mw.counter("proteus_cluster_quarantined_total", cs.QuarantinedN)
		mw.counter("proteus_cluster_stale_reports_total", cs.StaleReports)
		mw.counter("proteus_cluster_workers_evicted_total", cs.WorkersEvicted)
		for _, m := range []struct {
			name string
			get  func(w cluster.WorkerStats) uint64
		}{
			{"leased", func(w cluster.WorkerStats) uint64 { return uint64(w.Leased) }},
			{"completed", func(w cluster.WorkerStats) uint64 { return w.Completed }},
			{"requeued", func(w cluster.WorkerStats) uint64 { return w.Requeued }},
			{"lease_expired", func(w cluster.WorkerStats) uint64 { return w.Expired }},
		} {
			mw.typ("proteus_cluster_worker_"+m.name, "gauge")
			for _, w := range cs.Workers {
				fmt.Fprintf(mw, "proteus_cluster_worker_%s{worker=%q} %d\n", m.name, w.Name, m.get(w))
			}
		}
	}
}
