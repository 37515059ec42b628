// Package server implements tarad, the TARA query-serving daemon: an
// HTTP/JSON front end over a read-only tara.Framework knowledge base.
//
// Every exploration class of the paper is an endpoint (GET or POST form),
// taking the same parameters as the cmd/tara textual syntax. The routes are
// not declared here: New registers one for every row of query.Classes that
// names a Route, so a class added to that table is served without a change
// in this package.
//
//	/mine        w=0 supp=0.01 conf=0.2 [lift=1.5]     traditional mining
//	/count       w=0 supp=0.01 conf=0.2                qualifying-ruleset cardinality
//	/trajectory  w=3 supp=0.01 conf=0.2 in=0,1,2       Q1 rule trajectories
//	/diff        w=0,1,2 a=0.01,0.2 b=0.05,0.3         Q2 ruleset comparison
//	/recommend   w=0 supp=0.01 conf=0.2 [lift=1.5]     Q3 stable region
//	/rollup      from=0 to=3 supp=0.01 conf=0.2        Q4 coarse granularity
//	/drill       rule=12 from=0 to=3                   Q4 fine granularity
//	/content     w=0 supp=0.01 conf=0.2 items=a,b      Q5 content exploration
//	/rank        from=0 to=3 supp=… conf=… by=… k=10   evolution ranking
//	/periodic    from=0 to=8 supp=… conf=… period=7    cyclic qualification
//	/plot        w=0 [supp=0.01 conf=0.2]              parameter-space panorama
//	/topk        from=0 to=3 supp=… conf=… by=… k=10   columnar trajectory ranking
//	/similar     from=0 to=3 ref=0.1,0.2,… metric=…    trajectory similarity search
//	/emerging    from=0 supp=… conf=… [to=5]           newly qualifying rules
//
// /rank and the last three answer from the columnar trajectory engine
// (internal/traj): a window-major snapshot of the whole archive, rebuilt
// lazily per KB generation, whose aggregate scans, bounded-heap ranking,
// envelope-pruned similarity search and emergence detection run over
// contiguous float64 columns instead of per-rule payload decodes. /rank is
// /topk restricted to stability, coverage and volatility, without paging.
// The answers of /topk, /similar and /emerging range over committed
// (immutable) windows only, so they byte-cache under their raw parameters;
// /emerging without to= follows the newest window and is keyed against the
// resolved index.
//
// plus /stats (knowledge-base summary), /healthz, and /metrics with
// per-endpoint request counters, latency quantiles (p50/p95/p99), per-stage
// latency histograms, the framework's query-cache hit/miss/eviction counters
// and the encoded-response byte cache's counters. /metrics?format=prometheus
// renders the same data in Prometheus text exposition format.
//
// The rule-list classes (mine, content, trajectory, rollup) accept
// limit/offset pagination; their envelopes report the unpaginated total and
// the served offset alongside count. Rule-list bodies are encoded by a
// streaming row encoder (query.MineStream) that converts one reused row at a
// time in ~32KB chunks instead of materializing the whole answer.
//
// The single-window query classes whose answer is a pure function of the
// canonical cut — mine, count, recommend without a lift bound — are served
// through an encoded-response byte cache (bytecache.go): warm repeats write
// pre-encoded JSON straight to the wire (on a fast path ahead of the timeout
// wrapper, which would otherwise copy every body through its own buffer) and
// carry a strong ETag, so clients sending If-None-Match get 304 Not Modified
// without any body. If-None-Match is evaluated with RFC 9110 weak
// comparison, so proxies that downgrade tags to W/"..." still revalidate.
// Concurrent cold misses on one key are coalesced: a single materialize+
// encode answers the whole herd. When gzip is enabled (Config.GzipMinBytes
// >= 0), bodies at least that large get a gzip-precompressed cache variant
// negotiated via Accept-Encoding, served with Content-Encoding: gzip, a
// distinct "-gz" ETag and Vary: Accept-Encoding. The cache is invalidated
// per window when the knowledge base grows.
//
// Every request carries a trace (ID from an inbound X-Request-ID header when
// present, echoed on the response) whose named stages — decode,
// canonical-cut, cache-probe, eps-lookup, materialize, encode, and
// encode-cached for byte-cache hits — time the query's path through the
// knowledge base. Appending ?debug=trace to any query endpoint wraps the
// response with the request's stage breakdown (bypassing the byte cache),
// and /debug/slow lists the slowest traces seen so far.
//
// Requests are served concurrently; the Framework's query methods are safe
// against a writer appending windows, so a daemon can stay up while the
// knowledge base grows. Each request is bounded by a timeout, and the
// admission layer sheds excess load with 429 instead of queueing without
// bound: a latency-feedback in-flight limit with per-class guarantees
// (admission.go).
package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tara/internal/obs"
	"tara/internal/query"
	"tara/internal/tara"
)

// Config configures a Server. Zero values select sensible defaults.
type Config struct {
	// Framework is the knowledge base to serve. Required.
	Framework *tara.Framework
	// Logger receives one structured line per request. Defaults to
	// slog.Default().
	Logger *slog.Logger
	// RequestTimeout bounds each query request end to end; requests that
	// exceed it answer 503. Defaults to 10s.
	RequestTimeout time.Duration
	// MaxInFlight caps concurrently executing query requests; excess
	// requests are shed with 429. It is the hard upper bound of the AIMD
	// latency-feedback controller, which moves the limit within [MinLimit,
	// MaxInFlight] while weighted per-QoS-class guarantees keep cheap query
	// classes schedulable during shed episodes (see admission.go). Zero
	// selects 256; otherwise it must be at least one slot per QoS class (2).
	MaxInFlight int
	// MinLimit is the controller's lower bound (and cold-start limit). Zero
	// selects 2, the smallest limit at which every QoS class can be admitted;
	// a value above MaxInFlight clamps to it.
	MinLimit int
	// AdmissionWindow is the controller's decision cadence — how often the
	// AIMD loop inspects the windowed latency and moves the limit. Zero
	// selects the 200ms default.
	AdmissionWindow time.Duration
	// AdmissionTolerance is how far the windowed p99 may run above the
	// controller's baseline before the window counts as a breach (a
	// multiplicative factor). Zero selects the 2.0 default; any other value
	// must be finite and at least 1.
	AdmissionTolerance float64
	// QueueWait bounds how long a request may wait for an in-flight slot
	// before being shed with 429. Zero (the default) sheds the moment no
	// slot is free — the pre-queue behavior. A small bound (a few ms)
	// absorbs Poisson arrival bursts at high load without letting queue
	// delay grow unbounded; the wait is observed per endpoint as the
	// queueWait histogram on /metrics.
	QueueWait time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// SlowTraces sizes the ring of slowest request traces kept for
	// /debug/slow. Non-positive selects 32.
	SlowTraces int
	// ByteCacheBytes bounds the encoded-response byte cache (see
	// bytecache.go): the resident bytes of the pre-encoded JSON bodies
	// kept for the cacheable query classes, gzip variants included. Zero
	// selects 16 MiB; negative disables the cache (every response is
	// encoded per request).
	ByteCacheBytes int64
	// GzipMinBytes sets the smallest cached body that gets a
	// gzip-precompressed variant negotiated via Accept-Encoding. Zero
	// selects 1024 bytes; negative disables gzip variants
	// entirely (identity bodies only, no Vary header).
	GzipMinBytes int
	// KBLoadMode records how the knowledge base reached memory ("heap",
	// "mmap", "readerat" or "bytes"); surfaced on /metrics. Empty selects
	// the framework's own load mode.
	KBLoadMode string
	// KBLoadMillis records how long the startup load (or build) took, in
	// milliseconds; surfaced on /metrics.
	KBLoadMillis int64
}

// defaultGzipMinBytes is the gzip threshold when Config.GzipMinBytes is
// zero: bodies below 1KB rarely repay the compression and the extra cache
// entry.
const defaultGzipMinBytes = 1024

// Server answers TARA exploration queries over HTTP. Create with New; it is
// safe for concurrent use by any number of connections.
type Server struct {
	fw        *tara.Framework
	log       *slog.Logger
	timeout   time.Duration
	queueWait time.Duration // max wait for an in-flight slot; 0 = shed immediately
	// adm and ctrl are the admission layer: a dynamic-limit semaphore with
	// per-QoS-class guarantees, and the AIMD controller that owns its limit.
	adm     *qosSem
	ctrl    *aimdController
	mux     *http.ServeMux
	metrics *registry
	// bcache serves pre-encoded response bytes for the cacheable query
	// classes; nil when Config.ByteCacheBytes is negative.
	bcache *byteCache
	// flights coalesces concurrent encodes (and gzip derivations) of one
	// byte-cache key.
	flights flightGroup
	// gzipMin is the resolved Config.GzipMinBytes; negative = disabled.
	gzipMin int
	// encodes counts materialize+encode executions on the byte-cacheable
	// path — the denominator the singleflight layer shrinks.
	encodes atomic.Uint64

	// delay, when set (tests only), runs inside each query handler after
	// the in-flight slot is taken and before the query executes.
	delay func(endpoint string)
	// encodeHook, when set (tests only), runs inside the singleflight
	// leader before it re-checks the cache and encodes.
	encodeHook func()
}

// New builds a Server from cfg.
func New(cfg Config) (*Server, error) {
	if cfg.Framework == nil {
		return nil, fmt.Errorf("server: Config.Framework is required")
	}
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	timeout := cfg.RequestTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	slowTraces := cfg.SlowTraces
	if slowTraces <= 0 {
		slowTraces = 32
	}
	s := &Server{
		fw:        cfg.Framework,
		log:       log,
		timeout:   timeout,
		queueWait: cfg.QueueWait,
		mux:       http.NewServeMux(),
		metrics:   newRegistry(slowTraces),
		gzipMin:   cfg.GzipMinBytes,
	}
	if s.gzipMin == 0 {
		s.gzipMin = defaultGzipMinBytes
	}
	s.metrics.cacheStats = s.fw.CacheStats
	s.metrics.kbResidency = func() (int, bool) {
		a := s.fw.Archive()
		return a.SizeBytes(), a.Mapped()
	}
	s.metrics.kbLoadMode = cfg.KBLoadMode
	if s.metrics.kbLoadMode == "" {
		s.metrics.kbLoadMode = s.fw.LoadMode()
	}
	s.metrics.trajStats = s.fw.TrajStats
	s.metrics.kbLoadMillis = cfg.KBLoadMillis
	// Below one slot per QoS class some class can never be admitted (see
	// canAdmit), and the controller, which learns only from admitted
	// requests, would never raise the limit.
	for _, l := range []struct {
		field string
		v     int
	}{{"MaxInFlight", cfg.MaxInFlight}, {"MinLimit", cfg.MinLimit}} {
		if l.v < 0 || (l.v > 0 && l.v < numQoSClasses) {
			return nil, fmt.Errorf("server: %s %d must be at least %d, one slot per QoS class (0 selects the default)", l.field, l.v, numQoSClasses)
		}
	}
	maxInFlight := cfg.MaxInFlight
	if maxInFlight == 0 {
		maxInFlight = 256
	}
	minLimit := cfg.MinLimit
	if minLimit == 0 {
		minLimit = numQoSClasses
	}
	if minLimit > maxInFlight {
		minLimit = maxInFlight
	}
	acfg := defaultAIMDConfig(minLimit, maxInFlight)
	if cfg.AdmissionWindow > 0 {
		acfg.Window = cfg.AdmissionWindow
	}
	// Below 1 every mature window breaches (the baseline snaps down to
	// p99); NaN or +Inf never breaches.
	if tol := cfg.AdmissionTolerance; tol != 0 {
		if !(tol >= 1) || math.IsInf(tol, 1) {
			return nil, fmt.Errorf("server: AdmissionTolerance %v must be a finite factor >= 1 (0 selects the default)", tol)
		}
		acfg.Tolerance = tol
	}
	s.adm = newQoSSem(minLimit)
	s.ctrl = newAIMDController(acfg, s.adm, nil)
	s.metrics.admission = s.ctrl.snapshot
	// Registered only once New can no longer fail, so a rejected Config
	// leaves no hook on the framework.
	if cfg.ByteCacheBytes >= 0 {
		s.bcache = newByteCache(cfg.ByteCacheBytes)
		// Invalidate encoded bytes for a window the moment it commits, the
		// same per-window discipline as the framework's query cache.
		s.fw.OnAppend(s.bcache.invalidateWindow)
		s.metrics.byteStats = s.bcache.stats
	}

	// One route per served class of the query package's class table: the
	// endpoint is named after the route, decodes as the class's operation
	// name (which also labels it on /metrics and /debug/slow) and is admitted
	// under the class's QoS class.
	for _, c := range query.Classes {
		if c.Route == "" {
			continue // CLI-only
		}
		name, op := c.Route[1:], c.Name
		qc := qosAnalytic
		if c.Interactive {
			qc = qosInteractive
		}
		st := s.metrics.endpoint(name, op)
		inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			s.answer(name, op, qc, st, w, r)
		})
		h := http.TimeoutHandler(inner, timeout, `{"error":"request timed out"}`+"\n")
		s.mux.Handle(c.Route, s.instrument(name, st, s.cacheFirst(op, st, h)))
	}
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	s.mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.fw.Summarize())
	})
	s.mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "prometheus" {
			s.metrics.writePrometheus(w)
			return
		}
		writeJSON(w, http.StatusOK, s.metrics.snapshot())
	})
	s.mux.HandleFunc("/debug/slow", func(w http.ResponseWriter, r *http.Request) {
		traces := s.metrics.slow.Snapshot()
		if class := r.URL.Query().Get("class"); class != "" {
			filtered := make([]obs.SlowTrace, 0, len(traces))
			for _, t := range traces {
				if t.Class == class {
					filtered = append(filtered, t)
				}
			}
			traces = filtered
		}
		writeJSON(w, http.StatusOK, traces)
	})
	if cfg.EnablePprof {
		// Profiling endpoints expose stacks, heap contents and CPU samples;
		// they are opt-in and must never face an untrusted network.
		log.Warn("pprof enabled: /debug/pprof/ exposes profiling data (stacks, heap, CPU); do not expose this listener to untrusted networks")
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.metrics.publish()
	return s, nil
}

// Handler returns the root handler, ready to mount on an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// instrument wraps a query route with tracing, request counting, latency
// observation and structured logging. Admission and timeout live inside so
// that shed (429) and timed-out (503) requests are counted and timed like any
// other. Every request gets a trace: its ID comes from an inbound
// X-Request-ID header when present (so traces correlate across services) and
// is echoed back on the response. Stage durations are atomics, so a handler
// goroutine abandoned by the timeout wrapper can keep writing spans while
// this records the trace — the record is a safe point-in-time view.
//
// Counter ordering discipline: requests is bumped on ENTRY, before the
// handler can record any outcome (shed, timeout, error, latency), and
// snapshot readers load outcomes before requests — so every snapshot
// satisfies shed <= requests, timeouts <= requests, errors <= requests and
// latency.count <= requests, even mid-traffic.
func (s *Server) instrument(name string, st *endpointStats, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = obs.NewID()
		}
		tr := obs.NewTrace(id)
		w.Header().Set("X-Request-ID", id)
		r = r.WithContext(obs.WithTrace(r.Context(), tr))

		st.requests.Add(1)
		st.inFlight.Add(1)
		defer st.inFlight.Add(-1)
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(rec, r)
		d := time.Since(start)
		tr.Finish()
		if rec.status >= 400 {
			st.errors.Add(1)
		}
		if rec.status == http.StatusServiceUnavailable {
			// Only the timeout wrapper answers 503 on these routes.
			st.timeouts.Add(1)
		}
		st.latency.Observe(d)
		s.metrics.recordTrace(name, st.class, rec.status, start, tr)
		s.log.Info("request",
			"endpoint", name,
			"trace", id,
			"status", rec.status,
			"duration", d,
			"remote", r.RemoteAddr,
		)
	})
}

// probedKey marks a request context whose byte-cache probe already ran (and
// was counted) on the cacheFirst fast path, so the inner handler doesn't
// probe — and count — the same request twice.
type probedKey struct{}

// cacheFirst answers warm byte-cache hits before the request enters the
// timeout wrapper. http.TimeoutHandler copies every response body through
// its own buffer, so a warm hit served inside it pays a body-sized
// allocation per request; here the cached bytes go straight to the wire.
// Misses mark the context with their key and fall through to the normal
// pipeline. Only plain GETs take the fast path — POST forms and
// ?debug=trace keep their existing route.
func (s *Server) cacheFirst(op string, st *endpointStats, h http.Handler) http.Handler {
	if s.bcache == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || r.URL.Query().Get("debug") == "trace" {
			h.ServeHTTP(w, r)
			return
		}
		tr := obs.FromContext(r.Context())
		sp := tr.Start(obs.StageDecode)
		q, err := query.FromValues(op, r.URL.Query())
		sp.End()
		if err != nil {
			// Let the inner handler produce the canonical error response.
			h.ServeHTTP(w, r)
			return
		}
		// The canonicalized query is discarded here: on a miss the inner
		// handler re-decodes and re-keys, and the singleflight leader
		// executes that canonicalized form.
		key, _, ok := s.byteCacheKeyFor(q)
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		if e, hit := s.bcache.get(key); hit {
			sp := tr.Start(obs.StageEncodeCached)
			s.writeEntry(st, w, r, e)
			sp.End()
			return
		}
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), probedKey{}, key)))
	})
}

// answer decodes, executes and encodes one query request.
func (s *Server) answer(name, op string, qc int, st *endpointStats, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use GET or POST")
		return
	}
	tr := obs.FromContext(r.Context())
	if !s.adm.acquire(r.Context(), qc, s.queueWait) {
		s.metrics.shed.Add(1)
		st.shed.Add(1)
		st.countWrite(writeError(w, http.StatusTooManyRequests, "server at capacity, retry later"))
		return
	}
	admitted := time.Now()
	defer func() {
		// Feed the controller before freeing the slot, so the observed
		// occupancy includes this request.
		s.ctrl.observe(time.Since(admitted))
		s.adm.release(qc)
	}()
	// Queue wait: elapsed time from request arrival (trace creation in the
	// instrument middleware) to here — admission queueing plus router and
	// timeout-wrapper overhead. Shed requests never observe it.
	st.queueWait.Observe(tr.Total())
	if s.delay != nil {
		s.delay(name)
	}
	sp := tr.Start(obs.StageDecode)
	values := r.URL.Query()
	if r.Method == http.MethodPost {
		if err := r.ParseForm(); err != nil {
			sp.End()
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		values = r.Form
	}
	q, err := query.FromValues(op, values)
	sp.End()
	if err != nil {
		st.countWrite(writeError(w, http.StatusBadRequest, err.Error()))
		return
	}
	if s.bcache != nil && values.Get("debug") != "trace" {
		if key, cq, ok := s.byteCacheKeyFor(q); ok {
			s.answerCached(key, st, w, r, tr, cq)
			return
		}
	}
	res, err := query.AnswerTraced(s.fw, q, tr)
	if err != nil {
		// The knowledge base is read-only: a failing query is a bad
		// request (window out of range, unknown rule, ...), not a
		// server fault.
		st.countWrite(writeError(w, http.StatusBadRequest, err.Error()))
		return
	}
	if values.Get("debug") == "trace" {
		s.writeTraced(st, w, tr, res)
		return
	}
	sp = tr.Start(obs.StageEncode)
	st.countWrite(writeResult(w, res))
	sp.End()
}

// answerCached serves a byte-cacheable query. A warm hit (probed here for
// POST requests; the cacheFirst fast path already probed — and context-
// marked — GETs) writes the cached immutable body under the encode-cached
// span without touching the knowledge base. A miss enters the singleflight
// group: one leader runs the query, encodes once (streamed when the result
// supports it, byte-identical to writeJSON either way) and stores the
// bytes, while every concurrent duplicate waits for that entry instead of
// repeating the work.
func (s *Server) answerCached(key byteCacheKey, st *endpointStats, w http.ResponseWriter, r *http.Request, tr *obs.Trace, q query.Query) {
	if probed, _ := r.Context().Value(probedKey{}).(byteCacheKey); probed != key {
		if e, ok := s.bcache.get(key); ok {
			sp := tr.Start(obs.StageEncodeCached)
			s.writeEntry(st, w, r, e)
			sp.End()
			return
		}
	}
	e, errMsg, status, joined, ok := s.flights.do(r.Context(), key, func() (*byteCacheEntry, string, int) {
		if s.encodeHook != nil {
			s.encodeHook()
		}
		// A just-departed leader may have stored the entry between this
		// request's miss and winning the flight: re-check without counting
		// a second probe.
		if e, ok := s.bcache.lru.Peek(key); ok {
			return e, "", 0
		}
		// The generation is read before the query executes: a window
		// committing in between can only make the stored tag
		// over-discriminating (a fresh tag for identical bytes), never make
		// two different bodies share one.
		gen := s.fw.Generation()
		res, err := query.AnswerTraced(s.fw, q, tr)
		if err != nil {
			return nil, err.Error(), http.StatusBadRequest
		}
		sp := tr.Start(obs.StageEncode)
		body, err := encodeBody(res)
		sp.End()
		if err != nil {
			return nil, err.Error(), http.StatusInternalServerError
		}
		s.encodes.Add(1)
		e := &byteCacheEntry{key: key, etag: etagFor(gen, key), body: body}
		s.bcache.put(e)
		return e, "", 0
	})
	if !ok {
		// Context cancelled while waiting on another request's encode; the
		// timeout wrapper owns the response now.
		return
	}
	if joined {
		s.bcache.coalesced.Add(1)
	}
	if errMsg != "" {
		st.countWrite(writeError(w, status, errMsg))
		return
	}
	if e == nil {
		st.countWrite(writeError(w, http.StatusInternalServerError, "encode failed"))
		return
	}
	sp := tr.Start(obs.StageEncodeCached)
	s.writeEntry(st, w, r, e)
	sp.End()
}

// writeEntry writes one cached encoded response: negotiate the content
// coding, answer 304 when If-None-Match matches the selected
// representation's tag, otherwise write the immutable body with its exact
// length. Failed wire writes land in the endpoint's writeFailures counter.
func (s *Server) writeEntry(st *endpointStats, w http.ResponseWriter, r *http.Request, e *byteCacheEntry) {
	if s.gzipMin > 0 {
		w.Header().Set("Vary", "Accept-Encoding")
		if e.key.enc == encIdentity && len(e.body) >= s.gzipMin && acceptsGzip(r.Header.Get("Accept-Encoding")) {
			if gz, ok := s.gzipVariant(r.Context(), e); ok {
				e = gz
			}
		}
	}
	w.Header().Set("ETag", e.etag)
	if etagMatches(r.Header.Get("If-None-Match"), e.etag) {
		s.bcache.notModified.Add(1)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	if e.key.enc == encGzip {
		w.Header().Set("Content-Encoding", "gzip")
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(e.body)))
	w.WriteHeader(http.StatusOK)
	_, err := w.Write(e.body)
	st.countWrite(err)
}

// gzipVariant returns the gzip-coded twin of identity entry e, deriving and
// caching it on first use. Compression of one key is coalesced through the
// flight group, and the variant is only stored while the identity entry is
// still resident with the same tag — an invalidation racing the derivation
// can therefore never resurrect stale bytes under a fresh window.
func (s *Server) gzipVariant(ctx context.Context, e *byteCacheEntry) (*byteCacheEntry, bool) {
	gzKey := e.key
	gzKey.enc = encGzip
	want := gzipTag(e.etag)
	if gz, ok := s.bcache.lru.Peek(gzKey); ok && gz.etag == want {
		return gz, true
	}
	gz, _, _, _, ok := s.flights.do(ctx, gzKey, func() (*byteCacheEntry, string, int) {
		if gz, ok := s.bcache.lru.Peek(gzKey); ok && gz.etag == want {
			return gz, "", 0
		}
		body, err := exactCopy(func(buf *bytes.Buffer) error {
			zw, err := gzip.NewWriterLevel(buf, gzip.BestSpeed)
			if err != nil {
				return err
			}
			if _, err := zw.Write(e.body); err != nil {
				return err
			}
			return zw.Close()
		})
		if err != nil {
			return nil, err.Error(), 0
		}
		gz := &byteCacheEntry{key: gzKey, etag: want, body: body}
		if id, resident := s.bcache.lru.Peek(e.key); resident && id.etag == e.etag {
			s.bcache.put(gz)
		}
		return gz, "", 0
	})
	if !ok || gz == nil {
		return nil, false
	}
	return gz, true
}

// acceptsGzip reports whether an Accept-Encoding header value admits the
// gzip coding: a gzip, x-gzip or * member whose q parameter (if any) is not
// zero. An absent or empty header keeps the identity coding.
func acceptsGzip(hdr string) bool {
	for _, part := range strings.Split(hdr, ",") {
		coding, params, _ := strings.Cut(part, ";")
		switch strings.ToLower(strings.TrimSpace(coding)) {
		case "gzip", "x-gzip", "*":
		default:
			continue
		}
		params = strings.ReplaceAll(params, " ", "")
		if q, ok := strings.CutPrefix(params, "q="); ok {
			if v, err := strconv.ParseFloat(q, 64); err == nil && v == 0 {
				continue
			}
		}
		return true
	}
	return false
}

// encodeBody renders res exactly as writeResult would put it on the wire:
// streamed when the result supports it, one json.Encoder pass otherwise.
// The body is an exact-size copy (cap == len), ready to store.
func encodeBody(res any) ([]byte, error) {
	return exactCopy(func(buf *bytes.Buffer) error {
		if sr, ok := res.(query.Streamer); ok {
			return sr.StreamJSON(buf)
		}
		return json.NewEncoder(buf).Encode(res)
	})
}

// scratchPool holds the buffers cached bodies are written into before
// exactCopy copies them out. A buffer grown past maxPooledScratch is left to
// the collector, so one outsized answer does not stay pinned in the pool.
var scratchPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledScratch = 1 << 20

// exactCopy runs fill on a pooled scratch buffer and returns what it wrote
// as a fresh slice with cap == len. A body grown by doubling in its own
// buffer would carry up to half its length again in spare capacity for as
// long as it stays cached; here the copy is the only body-sized allocation.
func exactCopy(fill func(*bytes.Buffer) error) ([]byte, error) {
	buf := scratchPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooledScratch {
			scratchPool.Put(buf)
		}
	}()
	if err := fill(buf); err != nil {
		return nil, err
	}
	body := make([]byte, buf.Len())
	copy(body, buf.Bytes())
	return body, nil
}

// tracedBody is the ?debug=trace response envelope: the normal result plus
// the request's per-stage breakdown.
type tracedBody struct {
	Result json.RawMessage `json:"result"`
	Trace  traceBody       `json:"trace"`
}

type traceBody struct {
	ID          string            `json:"id"`
	TotalMicros float64           `json:"totalMicros"`
	Stages      []obs.StageTiming `json:"stages"`
}

// writeTraced encodes res with the trace's stage breakdown attached. The
// result is pre-marshaled inside the encode span so the reported encode stage
// covers the real serialization work; only the small envelope is written
// outside it.
func (s *Server) writeTraced(st *endpointStats, w http.ResponseWriter, tr *obs.Trace, res any) {
	sp := tr.Start(obs.StageEncode)
	raw, err := json.Marshal(res)
	sp.End()
	if err != nil {
		st.countWrite(writeError(w, http.StatusInternalServerError, err.Error()))
		return
	}
	tr.Finish()
	st.countWrite(writeJSON(w, http.StatusOK, tracedBody{
		Result: raw,
		Trace: traceBody{
			ID:          tr.ID(),
			TotalMicros: float64(tr.Total()) / float64(time.Microsecond),
			Stages:      tr.Stages(),
		},
	}))
}

// statusRecorder captures the status code written by the wrapped handler.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// writeResult writes res as a 200 response body: streamed in chunks when
// the result implements query.Streamer, one json.Encoder pass otherwise.
// The returned error covers both encode and wire failures — too late for a
// status change either way (the client sees a truncated body), but callers
// fold it into the endpoint's writeFailures counter so truncation is
// observable instead of silent.
func writeResult(w http.ResponseWriter, res any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if sr, ok := res.(query.Streamer); ok {
		return sr.StreamJSON(w)
	}
	return json.NewEncoder(w).Encode(res)
}

// writeJSON encodes v as the response body. A non-nil return means the
// body is truncated or failed mid-write; the status line is already gone,
// so the caller's only recourse is to count it (see endpointStats.countWrite).
func writeJSON(w http.ResponseWriter, code int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	return json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, msg string) error {
	return writeJSON(w, code, errorBody{Error: msg})
}
