package server

import (
	"expvar"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tara/internal/obs"
	"tara/internal/tara"
)

// Per-endpoint request metrics: lock-free counters plus power-of-two bucketed
// latency histograms (obs.Hist) from which /metrics derives p50/p95/p99, and
// per-stage histograms aggregated from request traces. All fields are atomics
// so observation never contends with request handling; snapshots taken during
// traffic are approximate but internally safe.

type endpointStats struct {
	// class is the query class served at this endpoint (the textual-syntax
	// op name, e.g. "about" for /content); set at registration, read-only.
	class    string
	requests atomic.Uint64
	errors   atomic.Uint64
	// writeFailures counts responses whose body encode or wire write failed
	// after the status line was committed — the client saw a truncated
	// body. These are invisible to the status-code error counter (the
	// status was already 200), so they get their own series.
	writeFailures atomic.Uint64
	// inFlight gauges requests currently inside the endpoint's handler
	// (including any time spent queued for an in-flight slot).
	inFlight atomic.Int64
	// shed counts requests this endpoint answered 429 because no in-flight
	// slot freed up in time; timeouts counts requests the timeout wrapper
	// cut off with 503. Both are incremented strictly AFTER the endpoint's
	// requests counter (the middleware bumps requests on entry), and
	// snapshots read them BEFORE requests, so shed <= requests and
	// timeouts <= requests hold in every observable snapshot.
	shed     atomic.Uint64
	timeouts atomic.Uint64
	latency  obs.Hist
	// queueWait is the time from request arrival to the query starting to
	// decode — admission queueing plus router/middleware overhead. Shed
	// requests never observe it (they were not admitted).
	queueWait obs.Hist
}

// countWrite folds a response-write error into the endpoint's
// truncated-write counter; nil errors and a nil receiver (handlers without
// an endpoint slot) are no-ops.
func (st *endpointStats) countWrite(err error) {
	if err != nil && st != nil {
		st.writeFailures.Add(1)
	}
}

// registry holds every endpoint's stats. The endpoint set is fixed at
// construction, so the map is read-only afterwards and needs no lock.
type registry struct {
	start     time.Time
	shed      atomic.Uint64
	endpoints map[string]*endpointStats
	// stages aggregates per-stage durations across all traced requests; index
	// by obs.Stage.
	stages [obs.NumStages]obs.Hist
	// slow retains the slowest request traces, served at /debug/slow.
	slow *obs.SlowRing
	// cacheStats, when set, contributes the framework's query-cache counters
	// to every snapshot (and thus to both /metrics and /debug/vars).
	cacheStats func() tara.CacheStats
	// byteStats, when set, contributes the encoded-response byte cache's
	// counters the same way.
	byteStats func() ByteCacheStats
	// kbResidency, when set, reports the archive's byte footprint and
	// whether its payloads are still mmap-aliased (versus promoted to the
	// heap) — the residency half of the kb load-mode story.
	kbResidency func() (bytes int, mapped bool)
	// kbLoadMode and kbLoadMillis describe how the knowledge base reached
	// memory at startup; set once in New, read-only afterwards.
	kbLoadMode   string
	kbLoadMillis int64
	// admission, when set, contributes the admission layer's snapshot
	// (limit in force, per-QoS-class counters) to /metrics.
	admission func() AdmissionSnapshot
	// trajStats, when set, contributes the columnar trajectory snapshot's
	// state (generation, dimensions, resident bytes, rebuild count).
	trajStats func() tara.TrajStats
}

func newRegistry(slowTraces int) *registry {
	return &registry{
		start:     time.Now(),
		endpoints: map[string]*endpointStats{},
		slow:      obs.NewSlowRing(slowTraces),
	}
}

// endpoint registers (or returns) the stats slot for name, serving query
// class class. Only called while building the mux, before any traffic.
func (r *registry) endpoint(name, class string) *endpointStats {
	st, ok := r.endpoints[name]
	if !ok {
		st = &endpointStats{class: class}
		r.endpoints[name] = st
	}
	return st
}

// recordTrace folds a finished request trace into the per-stage histograms
// and offers it to the slow-trace ring. Stages the request never entered
// (zero duration) are not observed, so stage counts reflect executions, not
// requests.
func (r *registry) recordTrace(endpoint, class string, status int, start time.Time, tr *obs.Trace) {
	if tr == nil {
		return
	}
	for _, s := range obs.Stages() {
		if d := tr.StageDur(s); d > 0 {
			r.stages[s].Observe(d)
		}
	}
	r.slow.Offer(&obs.SlowTrace{
		ID:          tr.ID(),
		Endpoint:    endpoint,
		Class:       class,
		Status:      status,
		Start:       start,
		TotalMicros: float64(tr.Total()) / float64(time.Microsecond),
		Stages:      tr.Stages(),
	})
}

// LatencySnapshot reports the latency distribution of one endpoint.
type LatencySnapshot struct {
	Count      uint64  `json:"count"`
	MeanMicros float64 `json:"meanMicros"`
	P50Micros  uint64  `json:"p50Micros"`
	P95Micros  uint64  `json:"p95Micros"`
	P99Micros  uint64  `json:"p99Micros"`
}

func latencySnapshot(h *obs.Hist) LatencySnapshot {
	hs := h.Snapshot()
	ls := LatencySnapshot{
		Count:     hs.Count,
		P50Micros: hs.Quantile(0.50),
		P95Micros: hs.Quantile(0.95),
		P99Micros: hs.Quantile(0.99),
	}
	if hs.Count > 0 {
		ls.MeanMicros = float64(hs.SumMicros) / float64(hs.Count)
	}
	return ls
}

// EndpointSnapshot reports one endpoint's counters and latency quantiles.
type EndpointSnapshot struct {
	// Class is the query class the endpoint serves (e.g. "about" for the
	// /content endpoint).
	Class         string `json:"class"`
	Requests      uint64 `json:"requests"`
	Errors        uint64 `json:"errors"`
	WriteFailures uint64 `json:"writeFailures"`
	// InFlight gauges requests currently executing (or queued for an
	// in-flight slot) at this endpoint.
	InFlight int64 `json:"inFlight"`
	// Shed counts requests answered 429 by the admission limiter; Timeouts
	// counts requests cut off with 503 by the per-request timeout.
	Shed     uint64          `json:"shed"`
	Timeouts uint64          `json:"timeouts"`
	Latency  LatencySnapshot `json:"latency"`
	// QueueWait is the admission-queueing delay distribution of admitted
	// requests (arrival to query decode).
	QueueWait LatencySnapshot `json:"queueWait"`
}

// MetricsSnapshot is the /metrics response body.
type MetricsSnapshot struct {
	UptimeSeconds float64 `json:"uptimeSeconds"`
	Goroutines    int     `json:"goroutines"`
	// KBLoadMode is how the knowledge base reached memory at startup:
	// "heap" (legacy deserialization or fresh build), "mmap", "readerat"
	// or "bytes" (mapped container without a live mapping).
	KBLoadMode string `json:"kbLoadMode"`
	// KBLoadMillis is the startup load (or build) duration in milliseconds.
	KBLoadMillis int64 `json:"kbLoadMillis"`
	// KBArchiveBytes is the TAR Archive's encoded footprint;
	// KBArchiveMapped reports whether those bytes are still mmap-aliased
	// (true until a write promotes them to the heap).
	KBArchiveBytes  int    `json:"kbArchiveBytes"`
	KBArchiveMapped bool   `json:"kbArchiveMapped"`
	Shed            uint64 `json:"shed"`
	// Admission is the in-flight admission layer's view: the current
	// (controller-moved) limit, the AIMD decision counters, and the
	// per-QoS-class limit/shed/borrow counters.
	Admission AdmissionSnapshot `json:"admission"`
	// Runtime is the Go runtime's resource view: heap, GC cycles, and the
	// GC-pause and scheduler-latency distributions.
	Runtime       obs.RuntimeSnapshot `json:"runtime"`
	QueryCache    tara.CacheStats     `json:"queryCache"`
	ResponseCache ByteCacheStats      `json:"responseCache"`
	// Trajectory is the columnar trajectory engine's snapshot state: whether
	// one is resident, its generation and dimensions, and how many rebuilds
	// the framework has paid.
	Trajectory tara.TrajStats              `json:"trajectory"`
	Endpoints  map[string]EndpointSnapshot `json:"endpoints"`
	// Stages reports the per-stage latency distributions aggregated across
	// all traced query requests, keyed by stage name (decode, canonical-cut,
	// cache-probe, eps-lookup, materialize, encode, encode-cached).
	Stages map[string]LatencySnapshot `json:"stages"`
}

func (r *registry) snapshot() MetricsSnapshot {
	snap := MetricsSnapshot{
		UptimeSeconds: time.Since(r.start).Seconds(),
		Goroutines:    runtime.NumGoroutine(),
		KBLoadMode:    r.kbLoadMode,
		KBLoadMillis:  r.kbLoadMillis,
		Shed:          r.shed.Load(),
		Endpoints:     make(map[string]EndpointSnapshot, len(r.endpoints)),
		Stages:        make(map[string]LatencySnapshot, obs.NumStages),
	}
	snap.Runtime = obs.ReadRuntime()
	if r.admission != nil {
		snap.Admission = r.admission()
	}
	if r.cacheStats != nil {
		snap.QueryCache = r.cacheStats()
	}
	if r.byteStats != nil {
		snap.ResponseCache = r.byteStats()
	}
	if r.kbResidency != nil {
		snap.KBArchiveBytes, snap.KBArchiveMapped = r.kbResidency()
	}
	if r.trajStats != nil {
		snap.Trajectory = r.trajStats()
	}
	for name, st := range r.endpoints {
		// The middleware bumps requests on entry, before any outcome counter
		// or histogram observation, so reading every outcome (latency,
		// queue wait, shed, timeouts, errors) BEFORE requests keeps each of
		// them <= Requests even while requests land mid-snapshot.
		lat := latencySnapshot(&st.latency)
		qw := latencySnapshot(&st.queueWait)
		shed := st.shed.Load()
		timeouts := st.timeouts.Load()
		errors := st.errors.Load()
		snap.Endpoints[name] = EndpointSnapshot{
			Class:         st.class,
			Requests:      st.requests.Load(),
			Errors:        errors,
			WriteFailures: st.writeFailures.Load(),
			InFlight:      st.inFlight.Load(),
			Shed:          shed,
			Timeouts:      timeouts,
			Latency:       lat,
			QueueWait:     qw,
		}
	}
	for _, s := range obs.Stages() {
		if h := &r.stages[s]; h.Count() > 0 {
			snap.Stages[s.String()] = latencySnapshot(h)
		}
	}
	return snap
}

// The process-global expvar name: expvar.Publish panics on duplicates, and
// tests construct many Servers in one process, so the name is published once
// with a closure that always reads the most recently published registry —
// the expvar output tracks the newest Server instead of freezing on the
// first one built.
var (
	publishOnce  sync.Once
	publishedReg atomic.Pointer[registry]
)

// publish exposes the snapshot under expvar as "tarad", so the standard
// /debug/vars machinery (and anything scraping it) sees the same numbers as
// /metrics.
func (r *registry) publish() {
	publishedReg.Store(r)
	publishOnce.Do(func() {
		expvar.Publish("tarad", expvar.Func(func() any {
			if reg := publishedReg.Load(); reg != nil {
				return reg.snapshot()
			}
			return nil
		}))
	})
}
