package server

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"time"

	"tara/internal/obs"
)

// Prometheus text exposition (version 0.0.4) for /metrics?format=prometheus.
// Rendered straight from the registry's atomics — no intermediate snapshot —
// so histogram buckets, sums and counts come from one consistent read order
// (obs.Hist.Snapshot) per series.

// writePrometheus renders the registry in Prometheus text format.
func (r *registry) writePrometheus(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writeGauge(w, "tarad_uptime_seconds", "Seconds since the server registry was created.", time.Since(r.start).Seconds())
	writeGauge(w, "tarad_goroutines", "Number of live goroutines.", float64(runtime.NumGoroutine()))
	if r.kbLoadMode != "" {
		writeGauge(w, "tarad_kb_load_millis", "Startup knowledge-base load (or build) duration in milliseconds.", float64(r.kbLoadMillis))
		fmt.Fprintf(w, "# HELP tarad_kb_load_info Knowledge-base load mode at startup; the value is always 1.\n# TYPE tarad_kb_load_info gauge\ntarad_kb_load_info{mode=%q} 1\n", r.kbLoadMode)
	}
	if r.kbResidency != nil {
		bytes, mapped := r.kbResidency()
		writeGauge(w, "tarad_kb_archive_bytes", "TAR Archive encoded footprint in bytes.", float64(bytes))
		var m float64
		if mapped {
			m = 1
		}
		writeGauge(w, "tarad_kb_archive_mapped", "1 when the archive payload is still mmap-aliased, 0 once promoted to the heap.", m)
	}
	writeRuntime(w)
	writeCounter(w, "tarad_shed_requests_total", "Requests shed with 429 by the in-flight limiter.", float64(r.shed.Load()))
	if r.admission != nil {
		writeAdmission(w, r.admission())
	}

	if r.cacheStats != nil {
		cs := r.cacheStats()
		writeCounter(w, "tarad_query_cache_hits_total", "Query-cache hits.", float64(cs.Hits))
		writeCounter(w, "tarad_query_cache_misses_total", "Query-cache misses.", float64(cs.Misses))
		writeCounter(w, "tarad_query_cache_evictions_total", "Query-cache evictions.", float64(cs.Evictions))
		writeGauge(w, "tarad_query_cache_entries", "Query-cache resident entries.", float64(cs.Entries))
	}

	if r.byteStats != nil {
		bs := r.byteStats()
		writeCounter(w, "tarad_response_cache_requests_total", "Byte-cacheable requests probed against the encoded-response cache.", float64(bs.Requests))
		writeCounter(w, "tarad_response_cache_hits_total", "Encoded-response cache hits served from cached bytes.", float64(bs.Hits))
		writeCounter(w, "tarad_response_cache_misses_total", "Encoded-response cache misses.", float64(bs.Misses))
		writeCounter(w, "tarad_response_cache_not_modified_total", "Conditional requests answered 304 via ETag match.", float64(bs.NotModified))
		writeCounter(w, "tarad_response_cache_evictions_total", "Encoded-response cache evictions.", float64(bs.Evictions))
		writeCounter(w, "tarad_response_cache_invalidations_total", "Encoded responses dropped by per-window invalidation.", float64(bs.Invalidations))
		writeCounter(w, "tarad_response_cache_coalesced_total", "Requests that joined another request's in-progress encode instead of encoding themselves.", float64(bs.Coalesced))
		writeGauge(w, "tarad_response_cache_entries", "Encoded-response cache resident entries.", float64(bs.Entries))
		writeGauge(w, "tarad_response_cache_bytes", "Encoded-response cache resident bytes, gzip variants and per-entry overhead included.", float64(bs.Bytes))
		writeGauge(w, "tarad_response_cache_capacity_bytes", "Encoded-response cache byte budget.", float64(bs.CapacityBytes))
	}

	if r.trajStats != nil {
		ts := r.trajStats()
		var built float64
		if ts.Built {
			built = 1
		}
		writeGauge(w, "tarad_traj_snapshot_built", "1 when a columnar trajectory snapshot is resident, 0 before the first trajectory query.", built)
		writeGauge(w, "tarad_traj_snapshot_generation", "KB generation the resident trajectory snapshot was built from.", float64(ts.Generation))
		writeGauge(w, "tarad_traj_snapshot_rules", "Rule rows in the resident trajectory snapshot.", float64(ts.Rules))
		writeGauge(w, "tarad_traj_snapshot_windows", "Windows in the resident trajectory snapshot.", float64(ts.Windows))
		writeGauge(w, "tarad_traj_snapshot_bytes", "Estimated resident size of the trajectory snapshot's columns.", float64(ts.MemBytes))
		writeCounter(w, "tarad_traj_snapshot_rebuilds_total", "Columnar trajectory snapshot builds since process start.", float64(ts.Rebuilds))
	}

	names := make([]string, 0, len(r.endpoints))
	for name := range r.endpoints {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Fprintln(w, "# HELP tarad_requests_total Requests handled, by endpoint.")
	fmt.Fprintln(w, "# TYPE tarad_requests_total counter")
	for _, name := range names {
		fmt.Fprintf(w, "tarad_requests_total{endpoint=%q} %d\n", name, r.endpoints[name].requests.Load())
	}
	fmt.Fprintln(w, "# HELP tarad_request_errors_total Requests answered with status >= 400, by endpoint.")
	fmt.Fprintln(w, "# TYPE tarad_request_errors_total counter")
	for _, name := range names {
		fmt.Fprintf(w, "tarad_request_errors_total{endpoint=%q} %d\n", name, r.endpoints[name].errors.Load())
	}
	fmt.Fprintln(w, "# HELP tarad_response_write_failures_total Responses whose body encode or wire write failed after the status line, by endpoint.")
	fmt.Fprintln(w, "# TYPE tarad_response_write_failures_total counter")
	for _, name := range names {
		fmt.Fprintf(w, "tarad_response_write_failures_total{endpoint=%q} %d\n", name, r.endpoints[name].writeFailures.Load())
	}
	fmt.Fprintln(w, "# HELP tarad_request_shed_total Requests shed with 429 by the admission limiter, by endpoint.")
	fmt.Fprintln(w, "# TYPE tarad_request_shed_total counter")
	for _, name := range names {
		fmt.Fprintf(w, "tarad_request_shed_total{endpoint=%q} %d\n", name, r.endpoints[name].shed.Load())
	}
	fmt.Fprintln(w, "# HELP tarad_request_timeouts_total Requests cut off with 503 by the per-request timeout, by endpoint.")
	fmt.Fprintln(w, "# TYPE tarad_request_timeouts_total counter")
	for _, name := range names {
		fmt.Fprintf(w, "tarad_request_timeouts_total{endpoint=%q} %d\n", name, r.endpoints[name].timeouts.Load())
	}
	fmt.Fprintln(w, "# HELP tarad_in_flight_requests Requests currently executing or queued for an in-flight slot, by endpoint.")
	fmt.Fprintln(w, "# TYPE tarad_in_flight_requests gauge")
	for _, name := range names {
		fmt.Fprintf(w, "tarad_in_flight_requests{endpoint=%q} %d\n", name, r.endpoints[name].inFlight.Load())
	}

	fmt.Fprintln(w, "# HELP tarad_request_duration_seconds Request latency, by endpoint.")
	fmt.Fprintln(w, "# TYPE tarad_request_duration_seconds histogram")
	for _, name := range names {
		writeHistSeries(w, "tarad_request_duration_seconds", "endpoint", name, r.endpoints[name].latency.Snapshot())
	}

	fmt.Fprintln(w, "# HELP tarad_queue_wait_seconds Admission-queue wait of admitted requests, by endpoint.")
	fmt.Fprintln(w, "# TYPE tarad_queue_wait_seconds histogram")
	for _, name := range names {
		writeHistSeries(w, "tarad_queue_wait_seconds", "endpoint", name, r.endpoints[name].queueWait.Snapshot())
	}

	fmt.Fprintln(w, "# HELP tarad_stage_duration_seconds Per-stage query latency, aggregated over traced requests.")
	fmt.Fprintln(w, "# TYPE tarad_stage_duration_seconds histogram")
	for _, s := range obs.Stages() {
		if h := &r.stages[s]; h.Count() > 0 {
			writeHistSeries(w, "tarad_stage_duration_seconds", "stage", s.String(), h.Snapshot())
		}
	}
}

// writeAdmission renders the admission layer: the limit in force (labeled
// per QoS class, with class="total" for the whole semaphore), occupancy, the
// per-class shed/borrow counters the QoS weighting exists to explain, and
// the controller's baseline and per-window decision counters.
func writeAdmission(w io.Writer, a AdmissionSnapshot) {
	fmt.Fprintf(w, "# HELP tarad_admission_info Admission mode in force; the value is always 1.\n# TYPE tarad_admission_info gauge\ntarad_admission_info{mode=%q} 1\n", a.Mode)
	fmt.Fprintln(w, "# HELP tarad_admission_limit In-flight limit in force, by QoS class (class=\"total\" is the whole semaphore; per-class values are guaranteed shares).")
	fmt.Fprintln(w, "# TYPE tarad_admission_limit gauge")
	fmt.Fprintf(w, "tarad_admission_limit{class=\"total\"} %d\n", a.Limit)
	for _, c := range a.Classes {
		fmt.Fprintf(w, "tarad_admission_limit{class=%q} %d\n", c.Class, c.Limit)
	}
	fmt.Fprintln(w, "# HELP tarad_admission_in_flight Admission slots held, by QoS class.")
	fmt.Fprintln(w, "# TYPE tarad_admission_in_flight gauge")
	fmt.Fprintf(w, "tarad_admission_in_flight{class=\"total\"} %d\n", a.InFlight)
	for _, c := range a.Classes {
		fmt.Fprintf(w, "tarad_admission_in_flight{class=%q} %d\n", c.Class, c.InFlight)
	}
	fmt.Fprintln(w, "# HELP tarad_admission_requests_total Admission attempts, by QoS class.")
	fmt.Fprintln(w, "# TYPE tarad_admission_requests_total counter")
	for _, c := range a.Classes {
		fmt.Fprintf(w, "tarad_admission_requests_total{class=%q} %d\n", c.Class, c.Requests)
	}
	fmt.Fprintln(w, "# HELP tarad_admission_shed_total Admission attempts refused (429), by QoS class.")
	fmt.Fprintln(w, "# TYPE tarad_admission_shed_total counter")
	for _, c := range a.Classes {
		fmt.Fprintf(w, "tarad_admission_shed_total{class=%q} %d\n", c.Class, c.Shed)
	}
	fmt.Fprintln(w, "# HELP tarad_admission_borrowed_total Admissions that borrowed another QoS class's idle share.")
	fmt.Fprintln(w, "# TYPE tarad_admission_borrowed_total counter")
	for _, c := range a.Classes {
		fmt.Fprintf(w, "tarad_admission_borrowed_total{class=%q} %d\n", c.Class, c.Borrowed)
	}
	writeGauge(w, "tarad_admission_baseline_p99_seconds", "AIMD controller's drift-bounded minimum of windowed p99 service latency.", a.BaselineP99Micros/1e6)
	fmt.Fprintln(w, "# HELP tarad_admission_limit_changes_total AIMD controller limit decisions, by direction (hold = no change).")
	fmt.Fprintln(w, "# TYPE tarad_admission_limit_changes_total counter")
	fmt.Fprintf(w, "tarad_admission_limit_changes_total{direction=\"up\"} %d\n", a.Increases)
	fmt.Fprintf(w, "tarad_admission_limit_changes_total{direction=\"down\"} %d\n", a.Decreases)
	fmt.Fprintf(w, "tarad_admission_limit_changes_total{direction=\"hold\"} %d\n", a.Holds)
}

func writeGauge(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
}

func writeCounter(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
}

// writeRuntime emits the Go runtime resource series: heap gauges, GC cycle
// counter, and the GC-pause / scheduler-latency distributions re-bucketed
// from runtime/metrics. These are the series that explain tail latency —
// pauses for p99.9 spikes, scheduler latency for CPU saturation.
func writeRuntime(w io.Writer) {
	rt := obs.ReadRuntime()
	writeGauge(w, "tarad_go_heap_live_bytes", "Bytes of live heap objects.", float64(rt.HeapLiveBytes))
	writeGauge(w, "tarad_go_heap_goal_bytes", "Heap size the garbage collector is aiming to keep under.", float64(rt.HeapGoalBytes))
	writeCounter(w, "tarad_go_gc_cycles_total", "Completed GC cycles since process start.", float64(rt.GCCycles))
	writeRuntimeHist(w, "tarad_go_gc_pause_seconds", "Distribution of stop-the-world GC pause latencies.", rt.GCPause)
	writeRuntimeHist(w, "tarad_go_sched_latency_seconds", "Distribution of time goroutines spent runnable before running.", rt.SchedLatency)
}

// writeRuntimeHist renders a RuntimeHist as an unlabeled Prometheus
// histogram. Zero-count buckets are elided (the runtime exports hundreds of
// fine-grained buckets, nearly all empty); cumulative counts stay exact
// because elision only skips repeat values. runtime/metrics does not track a
// duration sum, so the _sum sample is omitted — scrapers derive rates from
// _count and the bucket distribution.
func writeRuntimeHist(w io.Writer, name, help string, h obs.RuntimeHist) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if c == 0 || i >= len(h.Bounds) {
			continue
		}
		b := h.Bounds[i]
		if b > 1e300 { // +Inf terminal bucket: the explicit +Inf line covers it
			continue
		}
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, b, cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_count %d\n", name, cum)
}

// writeHistSeries emits one labeled histogram series: cumulative _bucket
// lines with power-of-two le bounds (in seconds), then _sum and _count. The
// +Inf bucket and _count both use the bucket total, which under concurrent
// observation can momentarily exceed the count field of the snapshot — the
// exposition stays internally consistent either way.
func writeHistSeries(w io.Writer, name, label, value string, snap obs.HistSnapshot) {
	var cum uint64
	for i, c := range snap.Buckets {
		cum += c
		if c == 0 && i > 20 {
			// Skip empty tail buckets beyond ~1s to bound output; the +Inf
			// line below still closes the series.
			continue
		}
		le := float64(obs.BucketBound(i)) / 1e6
		fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"%g\"} %d\n", name, label, value, le, cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", name, label, value, cum)
	fmt.Fprintf(w, "%s_sum{%s=%q} %g\n", name, label, value, float64(snap.SumMicros)/1e6)
	fmt.Fprintf(w, "%s_count{%s=%q} %d\n", name, label, value, cum)
}
