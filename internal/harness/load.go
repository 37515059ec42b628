package harness

import (
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tara/internal/itemset"
	"tara/internal/rules"
	"tara/internal/server"
	"tara/internal/tara"
	"tara/internal/txdb"
)

// The load experiment is the SLO evidence layer's harness: an OPEN-LOOP
// generator (arrivals follow a Poisson process at a fixed offered rate,
// independent of completions) driving the daemon's full handler chain —
// routing, tracing, admission, timeout wrapper, byte cache — to and past
// saturation. Closed-loop clients hide overload by slowing down with the
// server (coordinated omission); an open-loop client keeps offering work at
// the configured rate, so shed (429), timeout (503) and queue-wait numbers
// reflect what real independent clients would see.
//
// The run is phased: a calibration pass (closed loop, discarded) measures the
// box's capacity, then a fresh server serves a cold phase and a warm phase at
// ~half capacity and an overload phase at ~2x capacity. Request parameters
// and windows are drawn zipfian — a hot head that the query/byte caches can
// absorb plus a long tail that always misses — and the query-class mix spans
// byte-cacheable classes (mine, count, recommend) and the uncacheable
// trajectory class.

// loadClass is one query class in the generated mix.
type loadClass struct {
	name   string  // class label in the report (the endpoint's op name)
	weight float64 // fraction of arrivals
	url    func(g *loadGen) string
}

// loadClasses is the generated workload mix: mostly mine (the paper's
// primary interactive query), count and recommend (also byte-cacheable),
// plus trajectory (multi-window, never byte-cached) to keep uncacheable
// pressure on the admission path.
var loadClasses = []loadClass{
	{name: "mine", weight: 0.50, url: func(g *loadGen) string {
		p := g.point()
		return fmt.Sprintf("/mine?w=%d&supp=%v&conf=%v", g.window(), p[0], p[1])
	}},
	{name: "count", weight: 0.25, url: func(g *loadGen) string {
		p := g.point()
		return fmt.Sprintf("/count?w=%d&supp=%v&conf=%v", g.window(), p[0], p[1])
	}},
	{name: "recommend", weight: 0.15, url: func(g *loadGen) string {
		p := g.point()
		return fmt.Sprintf("/recommend?w=%d&supp=%v&conf=%v", g.window(), p[0], p[1])
	}},
	{name: "traj", weight: 0.10, url: func(g *loadGen) string {
		p := g.point()
		w := g.window()
		in := ""
		for i := 0; i < g.windows; i++ {
			if i == w {
				continue
			}
			if in != "" {
				in += ","
			}
			in += fmt.Sprint(i)
		}
		return fmt.Sprintf("/trajectory?w=%d&supp=%v&conf=%v&in=%s", w, p[0], p[1], in)
	}},
}

// loadGen draws request URLs for one phase: zipfian over a fixed pool of
// parameter points (hot head for the caches, long tail of misses) and
// zipfian over windows. Not safe for concurrent use; the arrival loop owns
// it.
type loadGen struct {
	r       *rand.Rand
	points  [][2]float64
	pzipf   *rand.Zipf
	windows int
	wzipf   *rand.Zipf
}

func newLoadGen(points [][2]float64, windows int, seed int64) *loadGen {
	r := rand.New(rand.NewSource(seed))
	return &loadGen{
		r:       r,
		points:  points,
		pzipf:   rand.NewZipf(r, 1.2, 1, uint64(len(points)-1)),
		windows: windows,
		wzipf:   rand.NewZipf(r, 1.3, 1, uint64(windows-1)),
	}
}

func (g *loadGen) point() [2]float64 { return g.points[g.pzipf.Uint64()] }
func (g *loadGen) window() int       { return int(g.wzipf.Uint64()) }

// class picks a query class by mix weight.
func (g *loadGen) class() int {
	x := g.r.Float64()
	for i, c := range loadClasses {
		if x < c.weight {
			return i
		}
		x -= c.weight
	}
	return 0
}

// LoadOptions configures the load experiment. Zero values select defaults
// sized for a checked-in benchmark run; tests shrink them.
type LoadOptions struct {
	// PhaseDuration is how long each measured phase offers load. Default 3s.
	PhaseDuration time.Duration
	// Rates, when non-empty, are explicit offered rates (QPS) replacing the
	// calibrated below/above-saturation pair. Each rate becomes one warm
	// phase (the cold phase always runs at the first rate). Every rate must
	// be finite and > 0.
	Rates []float64
	// MaxInFlight caps the server's concurrently executing queries. Default
	// GOMAXPROCS: queries are CPU-bound, so one slot per core is the point
	// where admission control binds before the run queue does — a larger
	// limiter never fills (the CPU saturates first) and the overload phase
	// would show scheduler collapse instead of clean sheds.
	MaxInFlight int
	// QueueWait is the server's admission queue bound. Default 100ms —
	// several times the heaviest query's service time, so below saturation
	// queued requests are admitted (the queue drains faster than patience
	// runs out) while above saturation the growing queue pushes waits past
	// the bound and requests shed.
	QueueWait time.Duration
	// Timeout is the server's per-request timeout. Default 2s.
	Timeout time.Duration
	// Seed fixes the workload; 0 selects the default.
	Seed int64
	// Admission selects the experiment's scope: "" or "adaptive" (the
	// default) appends the adaptive-admission section — a second cold server
	// under the AIMD controller, driven through a load ramp and a steady
	// above-saturation phase — while "static" runs only the legacy
	// fixed-cap phases.
	Admission string
}

// defaults fills the zero fields and rejects rates the arrival loop cannot
// run at: the next arrival is ExpFloat64()/rate away, so a zero, negative or
// non-finite rate moves the arrival clock backwards (or not at all) and the
// phase never ends.
func (o *LoadOptions) defaults() error {
	for _, r := range o.Rates {
		if !(r > 0) || math.IsInf(r, 0) {
			return fmt.Errorf("harness: load: offered rate %v is not a finite rate > 0", r)
		}
	}
	if o.PhaseDuration <= 0 {
		o.PhaseDuration = 3 * time.Second
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if o.QueueWait <= 0 {
		o.QueueWait = 100 * time.Millisecond
	}
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 7
	}
	return nil
}

// LoadClassStats is one query class's outcome within one phase. Latency
// quantiles cover ADMITTED requests only (status < 400): shed requests are
// answered in microseconds and would drag the percentiles toward zero
// exactly when the server is refusing work.
type LoadClassStats struct {
	Class    string `json:"class"`
	Requests int    `json:"requests"`
	OK       int    `json:"ok"`
	Shed     int    `json:"shed"`
	Timeouts int    `json:"timeouts"`
	Errors   int    `json:"errors"`
	// Latency of admitted requests, microseconds.
	P50Micros  float64 `json:"p50Micros"`
	P95Micros  float64 `json:"p95Micros"`
	P99Micros  float64 `json:"p99Micros"`
	P999Micros float64 `json:"p999Micros"`
	MeanMicros float64 `json:"meanMicros"`
	MaxMicros  float64 `json:"maxMicros"`
}

// LoadCacheDelta is a cache's activity within one phase.
type LoadCacheDelta struct {
	Hits     uint64  `json:"hits"`
	Misses   uint64  `json:"misses"`
	HitRatio float64 `json:"hitRatio"`
}

// LoadPhase is one measured phase of the load run.
type LoadPhase struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	// OfferedQPS is the configured arrival rate; GeneratedQPS is the rate
	// the arrival loop actually achieved (it can lag on a saturated box);
	// CompletedQPS counts every response, AchievedQPS only status<400.
	OfferedQPS   float64 `json:"offeredQPS"`
	GeneratedQPS float64 `json:"generatedQPS"`
	CompletedQPS float64 `json:"completedQPS"`
	AchievedQPS  float64 `json:"achievedQPS"`
	Requests     int     `json:"requests"`
	// ShedRate and TimeoutRate are fractions of all responses in the phase.
	ShedRate    float64 `json:"shedRate"`
	TimeoutRate float64 `json:"timeoutRate"`
	// ClientDropped counts arrivals the generator discarded because the
	// client-side outstanding-request cap was full — offered load the
	// server never saw (reported, never silently elided).
	ClientDropped int              `json:"clientDropped"`
	Classes       []LoadClassStats `json:"classes"`
	QueryCache    LoadCacheDelta   `json:"queryCache"`
	ByteCache     LoadCacheDelta   `json:"byteCache"`
}

// LoadReport is the JSON document the load experiment emits
// (BENCH_load.json).
type LoadReport struct {
	Locations   int     `json:"locationsPerWindow"`
	Windows     int     `json:"windows"`
	MaxInFlight int     `json:"maxInFlight"`
	QueueWaitMS float64 `json:"queueWaitMillis"`
	TimeoutMS   float64 `json:"timeoutMillis"`
	// CapacityQPS is the closed-loop calibrated throughput the phase rates
	// are derived from (0 when explicit rates were given).
	CapacityQPS float64     `json:"capacityQPS"`
	Phases      []LoadPhase `json:"phases"`
	// Adaptive is the adaptive-admission section: the same workload against
	// a cold server under the AIMD controller (nil when Admission:"static"
	// skipped it).
	Adaptive *AdaptiveLoadReport `json:"adaptive,omitempty"`
}

// LimitSample is one point of the adaptive controller's limit trajectory,
// sampled on a fixed cadence across the ramp and steady phases.
type LimitSample struct {
	OffsetMillis float64 `json:"offsetMillis"`
	OfferedQPS   float64 `json:"offeredQPS"`
	Limit        int     `json:"limit"`
	InFlight     int     `json:"inFlight"`
}

// ClassP99 compares one query class's admitted p99 between the tuned static
// cap and the adaptive controller at the same above-saturation offered rate.
type ClassP99 struct {
	Class          string  `json:"class"`
	StaticMicros   float64 `json:"staticP99Micros"`
	AdaptiveMicros float64 `json:"adaptiveP99Micros"`
}

// AdaptiveLoadReport is the adaptive-admission evidence: the controller's
// limit trajectory while the offered load ramps across the capacity knee,
// the limit it converged to, and the admitted tail latency next to the
// tuned static cap's at the same overload rate.
type AdaptiveLoadReport struct {
	MinLimit int `json:"minLimit"`
	MaxLimit int `json:"maxLimit"`
	// ConvergedLimit is the median limit over the steady (post-ramp) phase's
	// trajectory samples.
	ConvergedLimit int    `json:"convergedLimit"`
	Increases      uint64 `json:"increases"`
	Decreases      uint64 `json:"decreases"`
	// Trajectory is the sampled (offered rate, limit, in-flight) path; the
	// ramp covers its first two thirds, the steady phase the rest.
	Trajectory []LimitSample `json:"trajectory"`
	// Phases are adaptive-ramp and adaptive-above, in the same shape as the
	// top-level static phases (per-class sheds included).
	Phases []LoadPhase `json:"phases"`
	// P99VsStatic pairs each class's admitted p99 in adaptive-above with the
	// static warm-above phase's, per class.
	P99VsStatic []ClassP99 `json:"p99VsStatic"`
}

// loadOutcome is one completed request.
type loadOutcome struct {
	class  int
	status int
	dur    time.Duration
}

// loadCollector accumulates outcomes; one mutex is fine at harness rates
// (a few tens of thousands of appends per second).
type loadCollector struct {
	mu  sync.Mutex
	out []loadOutcome
}

func (c *loadCollector) add(o loadOutcome) {
	c.mu.Lock()
	c.out = append(c.out, o)
	c.mu.Unlock()
}

// statusRecorder keeps the status code and discards the body.
type statusRecorder struct {
	h      http.Header
	status int
}

func (s *statusRecorder) Header() http.Header {
	if s.h == nil {
		s.h = http.Header{}
	}
	return s.h
}
func (s *statusRecorder) Write(b []byte) (int, error) { return len(b), nil }
func (s *statusRecorder) WriteHeader(code int)        { s.status = code }

// loadFramework builds a small multi-window knowledge base through the
// premined AppendRules path: the same rule identities in every window with
// window-varying counts, so trajectory queries have real cross-window work.
func loadFramework(locations, windows int, seed int64) (*tara.Framework, error) {
	const n = 1 << 16 // window cardinality
	f := tara.New(txdb.NewDict(), tara.Config{})
	for wi := 0; wi < windows; wi++ {
		r := rand.New(rand.NewSource(seed + int64(wi)))
		rs := make([]rules.WithStats, locations)
		for i := range rs {
			xy := uint32(1 + r.Intn(n))
			x := xy + uint32(r.Intn(n-int(xy)+1))
			rs[i] = rules.WithStats{
				Rule: rules.Rule{
					Ant:  itemset.New(uint32(10 + 2*i)),
					Cons: itemset.New(uint32(11 + 2*i)),
				},
				Stats: rules.Stats{CountXY: xy, CountX: x, CountY: x, N: n},
			}
		}
		w := txdb.Window{
			Index:  wi,
			Period: txdb.Period{Start: int64(wi * 1000), End: int64(wi*1000 + 999)},
			Tx:     make([]txdb.Transaction, n),
		}
		if err := f.AppendRules(w, rs); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func newLoadServer(f *tara.Framework, opts LoadOptions) (*server.Server, error) {
	return server.New(server.Config{
		Framework:      f,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
		RequestTimeout: opts.Timeout,
		MaxInFlight:    opts.MaxInFlight,
		QueueWait:      opts.QueueWait,
	})
}

// calibrate measures closed-loop WARM capacity: a first closed-loop window
// primes the caches (discarded), a second measures. MaxInFlight workers each
// keep one request outstanding, which keeps the limiter exactly full without
// shedding. The server it warms is thrown away — the measured phases start
// from their own cold server.
func calibrate(h http.Handler, g *loadGen, workers int, d time.Duration) float64 {
	// Pre-draw a URL pool so workers don't share the generator.
	urls := make([]string, 256)
	for i := range urls {
		urls[i] = loadClasses[g.class()].url(g)
	}
	pass := func(d time.Duration) float64 {
		var done atomic.Int64
		deadline := time.Now().Add(d)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rec := &statusRecorder{}
				for i := w; time.Now().Before(deadline); i++ {
					req, err := http.NewRequest(http.MethodGet, urls[i%len(urls)], nil)
					if err != nil {
						return
					}
					rec.status = 0
					h.ServeHTTP(rec, req)
					done.Add(1)
				}
			}(w)
		}
		wg.Wait()
		return float64(done.Load()) / d.Seconds()
	}
	pass(d) // warm the caches; a cold measurement would understate capacity
	return pass(d)
}

// runPhase offers Poisson arrivals at rate QPS for d, each dispatched to its
// own goroutine (open loop: the arrival clock never waits for completions).
// A client-side outstanding cap bounds goroutine growth past saturation;
// arrivals dropped by the cap are counted, not hidden.
func runPhase(h http.Handler, g *loadGen, name string, rate float64, d time.Duration,
	qc func() tara.CacheStats, bc func() server.ByteCacheStats) LoadPhase {
	return runPhaseRate(h, g, name, func(time.Duration) float64 { return rate }, rate, d, qc, bc)
}

// runPhaseRate is runPhase with a time-varying offered rate: rateAt maps
// elapsed phase time to the instantaneous arrival rate, which is what the
// adaptive experiment's ramp uses to sweep the offered load across the
// capacity knee within one phase. offered is the rate recorded in the report
// (the peak for a ramp).
func runPhaseRate(h http.Handler, g *loadGen, name string, rateAt func(time.Duration) float64,
	offered float64, d time.Duration, qc func() tara.CacheStats, bc func() server.ByteCacheStats) LoadPhase {
	const maxOutstanding = 2048
	qc0, bc0 := qc(), bc()
	col := &loadCollector{}
	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	var generated, dropped int
	start := time.Now()
	deadline := start.Add(d)
	next := start
	for next.Before(deadline) {
		if now := time.Now(); next.After(now) {
			time.Sleep(next.Sub(now))
		}
		// Fire every arrival that has come due; on a loaded box the sleep
		// can overshoot several inter-arrival gaps, and firing the backlog
		// in a burst is exactly what an open-loop client does.
		for now := time.Now(); !next.After(now) && next.Before(deadline); {
			ci := g.class()
			url := loadClasses[ci].url(g)
			generated++
			select {
			case sem <- struct{}{}:
				wg.Add(1)
				go func(ci int, url string) {
					defer wg.Done()
					defer func() { <-sem }()
					req, err := http.NewRequest(http.MethodGet, url, nil)
					if err != nil {
						return
					}
					rec := &statusRecorder{}
					t0 := time.Now()
					h.ServeHTTP(rec, req)
					dur := time.Since(t0)
					status := rec.status
					if status == 0 {
						status = http.StatusOK
					}
					col.add(loadOutcome{class: ci, status: status, dur: dur})
				}(ci, url)
			default:
				dropped++
			}
			next = next.Add(time.Duration(g.r.ExpFloat64() / rateAt(next.Sub(start)) * float64(time.Second)))
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	qc1, bc1 := qc(), bc()

	ph := LoadPhase{
		Name:          name,
		Seconds:       elapsed.Seconds(),
		OfferedQPS:    offered,
		GeneratedQPS:  float64(generated) / d.Seconds(),
		Requests:      len(col.out),
		ClientDropped: dropped,
		QueryCache:    cacheDelta(qc1.Hits-qc0.Hits, qc1.Misses-qc0.Misses),
		ByteCache:     cacheDelta(bc1.Hits-bc0.Hits, bc1.Misses-bc0.Misses),
	}

	var ok, shed, timeouts int
	perClass := make([][]time.Duration, len(loadClasses))
	stats := make([]LoadClassStats, len(loadClasses))
	for i, c := range loadClasses {
		stats[i].Class = c.name
	}
	for _, o := range col.out {
		st := &stats[o.class]
		st.Requests++
		switch {
		case o.status == http.StatusTooManyRequests:
			st.Shed++
			shed++
		case o.status == http.StatusServiceUnavailable:
			st.Timeouts++
			timeouts++
		case o.status >= 400:
			st.Errors++
		default:
			st.OK++
			ok++
			perClass[o.class] = append(perClass[o.class], o.dur)
		}
	}
	for i := range stats {
		fillLatency(&stats[i], perClass[i])
	}
	ph.Classes = stats
	ph.CompletedQPS = float64(len(col.out)) / elapsed.Seconds()
	ph.AchievedQPS = float64(ok) / elapsed.Seconds()
	if n := len(col.out); n > 0 {
		ph.ShedRate = float64(shed) / float64(n)
		ph.TimeoutRate = float64(timeouts) / float64(n)
	}
	return ph
}

func cacheDelta(hits, misses uint64) LoadCacheDelta {
	d := LoadCacheDelta{Hits: hits, Misses: misses}
	if t := hits + misses; t > 0 {
		d.HitRatio = float64(hits) / float64(t)
	}
	return d
}

// fillLatency sorts the admitted durations and fills the quantile fields.
func fillLatency(st *LoadClassStats, ds []time.Duration) {
	if len(ds) == 0 {
		return
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	at := func(q float64) float64 {
		i := int(q * float64(len(ds)-1))
		return float64(ds[i]) / 1e3
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	st.P50Micros = at(0.50)
	st.P95Micros = at(0.95)
	st.P99Micros = at(0.99)
	st.P999Micros = at(0.999)
	st.MeanMicros = float64(sum) / float64(len(ds)) / 1e3
	st.MaxMicros = float64(ds[len(ds)-1]) / 1e3
}

// onlinePointsFor draws the pool of (minsupp, minconf) request points,
// uniform over the unit square.
func onlinePointsFor(count int, seed int64) [][2]float64 {
	r := rand.New(rand.NewSource(seed))
	pts := make([][2]float64, count)
	for i := range pts {
		pts[i] = [2]float64{r.Float64(), r.Float64()}
	}
	return pts
}

// LoadBench runs the load experiment and returns its report.
func LoadBench(scale float64, opts LoadOptions) (*LoadReport, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	if scale <= 0 {
		scale = 1
	}
	// Sized so the uncacheable tail queries cost ~10ms+ of CPU: heavy
	// enough that the runtime preempts a request mid-execution under load,
	// which is what lets an admission limiter actually fill on a small box
	// (shorter handlers run to completion and serialize through the
	// scheduler instead).
	locations := int(10000 * scale)
	if locations < 500 {
		locations = 500
	}
	const windows = 4

	points := onlinePointsFor(64, opts.Seed)
	rep := &LoadReport{
		Locations:   locations,
		Windows:     windows,
		MaxInFlight: opts.MaxInFlight,
		QueueWaitMS: float64(opts.QueueWait) / float64(time.Millisecond),
		TimeoutMS:   float64(opts.Timeout) / float64(time.Millisecond),
	}

	rates := opts.Rates
	if len(rates) == 0 {
		// Calibrate on a sacrificial server (calibration warms every cache),
		// then pick one rate clearly below and one clearly above capacity.
		calFw, err := loadFramework(locations, windows, opts.Seed)
		if err != nil {
			return nil, err
		}
		calSrv, err := newLoadServer(calFw, opts)
		if err != nil {
			return nil, err
		}
		calDur := opts.PhaseDuration / 3
		if calDur < 200*time.Millisecond {
			calDur = 200 * time.Millisecond
		}
		cap := calibrate(calSrv.Handler(), newLoadGen(points, windows, opts.Seed), opts.MaxInFlight, calDur)
		if cap < 10 {
			cap = 10
		}
		rep.CapacityQPS = cap
		rates = []float64{0.5 * cap, 2 * cap}
	}

	// The measured server starts cold: fresh framework, empty caches.
	f, err := loadFramework(locations, windows, opts.Seed)
	if err != nil {
		return nil, err
	}
	srv, err := newLoadServer(f, opts)
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	qc, bc := f.CacheStats, srv.ByteCacheStats
	g := newLoadGen(points, windows, opts.Seed+1)

	// Phase 1: cold caches at the below-saturation rate.
	rep.Phases = append(rep.Phases, runPhase(h, g, "cold", rates[0], opts.PhaseDuration, qc, bc))
	// Phase 2..n: warm phases, one per rate (the same server, caches primed
	// by everything before).
	for i, rate := range rates {
		name := fmt.Sprintf("warm-rate%d", i+1)
		switch {
		case len(rates) == 2 && i == 0:
			name = "warm-below"
		case len(rates) == 2 && i == 1:
			name = "warm-above"
		}
		rep.Phases = append(rep.Phases, runPhase(h, g, name, rate, opts.PhaseDuration, qc, bc))
	}

	if opts.Admission != "static" {
		ad, err := runAdaptive(points, locations, windows, rates[0], rates[len(rates)-1],
			&rep.Phases[len(rep.Phases)-1], opts)
		if err != nil {
			return nil, err
		}
		rep.Adaptive = ad
	}
	return rep, nil
}

// runAdaptive reruns the workload against a second cold server in adaptive
// admission mode: a ramp phase sweeps the offered rate from below to above
// the capacity knee (twice the usual phase length, so the controller sees
// both regimes) while a sampler records the limit trajectory, then a steady
// phase holds the static run's above-saturation rate so the admitted tail is
// directly comparable to the tuned static cap's warm-above phase. The
// controller starts from its cold default (MinLimit), with headroom well
// above the tuned static cap so convergence is earned, not clamped.
func runAdaptive(points [][2]float64, locations, windows int, low, high float64,
	staticAbove *LoadPhase, opts LoadOptions) (*AdaptiveLoadReport, error) {
	f, err := loadFramework(locations, windows, opts.Seed)
	if err != nil {
		return nil, err
	}
	maxLimit := 4 * opts.MaxInFlight
	if maxLimit < 8 {
		maxLimit = 8
	}
	srv, err := server.New(server.Config{
		Framework:      f,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
		RequestTimeout: opts.Timeout,
		MaxInFlight:    maxLimit,
		AdmissionMode:  "adaptive",
		QueueWait:      opts.QueueWait,
	})
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	qc, bc := f.CacheStats, srv.ByteCacheStats
	g := newLoadGen(points, windows, opts.Seed+2)

	rampDur := 2 * opts.PhaseDuration
	rateAt := func(t time.Duration) float64 {
		frac := float64(t) / float64(rampDur)
		if frac > 1 {
			frac = 1
		}
		return low + (high-low)*frac
	}

	a0 := srv.Admission()
	ad := &AdaptiveLoadReport{MinLimit: a0.MinLimit, MaxLimit: a0.MaxLimit}

	// The trajectory sampler spans both phases; its offsets are from the
	// ramp's start, so rateAt doubles as the schedule of offered rates.
	interval := opts.PhaseDuration / 20
	if interval > 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	t0 := time.Now()
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-tick.C:
				off := now.Sub(t0)
				snap := srv.Admission()
				ad.Trajectory = append(ad.Trajectory, LimitSample{
					OffsetMillis: float64(off) / float64(time.Millisecond),
					OfferedQPS:   rateAt(off),
					Limit:        snap.Limit,
					InFlight:     snap.InFlight,
				})
			}
		}
	}()
	ad.Phases = append(ad.Phases, runPhaseRate(h, g, "adaptive-ramp", rateAt, high, rampDur, qc, bc))
	ad.Phases = append(ad.Phases, runPhase(h, g, "adaptive-above", high, opts.PhaseDuration, qc, bc))
	close(stop)
	<-done

	final := srv.Admission()
	ad.Increases, ad.Decreases = final.Increases, final.Decreases
	ad.ConvergedLimit = convergedLimit(ad.Trajectory, float64(rampDur)/float64(time.Millisecond))
	above := ad.Phases[len(ad.Phases)-1]
	for _, sc := range staticAbove.Classes {
		for _, ac := range above.Classes {
			if ac.Class == sc.Class && (sc.OK > 0 || ac.OK > 0) {
				ad.P99VsStatic = append(ad.P99VsStatic, ClassP99{
					Class:          sc.Class,
					StaticMicros:   sc.P99Micros,
					AdaptiveMicros: ac.P99Micros,
				})
			}
		}
	}
	return ad, nil
}

// convergedLimit is the median limit over the post-ramp (steady-phase)
// trajectory samples; a run too short to have any falls back to the last
// quarter of all samples.
func convergedLimit(traj []LimitSample, rampMillis float64) int {
	var tail []int
	for _, s := range traj {
		if s.OffsetMillis >= rampMillis {
			tail = append(tail, s.Limit)
		}
	}
	if len(tail) == 0 && len(traj) > 0 {
		for _, s := range traj[len(traj)-(len(traj)+3)/4:] {
			tail = append(tail, s.Limit)
		}
	}
	if len(tail) == 0 {
		return 0
	}
	sort.Ints(tail)
	return tail[len(tail)/2]
}

// PrintLoad renders an already-measured load report.
func PrintLoad(w io.Writer, rep *LoadReport) error {
	fmt.Fprintf(w, "Open-loop load — %d locations x %d windows, maxInFlight=%d, queueWait=%gms, timeout=%gms\n",
		rep.Locations, rep.Windows, rep.MaxInFlight, rep.QueueWaitMS, rep.TimeoutMS)
	if rep.CapacityQPS > 0 {
		fmt.Fprintf(w, "calibrated capacity: %.0f QPS (closed loop)\n", rep.CapacityQPS)
	}
	for _, ph := range rep.Phases {
		printLoadPhase(w, ph)
	}
	if ad := rep.Adaptive; ad != nil {
		fmt.Fprintf(w, "\nadaptive admission — limit bounds [%d,%d], converged %d, %d raises / %d backoffs, %d trajectory samples\n",
			ad.MinLimit, ad.MaxLimit, ad.ConvergedLimit, ad.Increases, ad.Decreases, len(ad.Trajectory))
		for _, ph := range ad.Phases {
			printLoadPhase(w, ph)
		}
		for _, c := range ad.P99VsStatic {
			fmt.Fprintf(w, "  p99 %-10s static %10.1fµs   adaptive %10.1fµs\n",
				c.Class, c.StaticMicros, c.AdaptiveMicros)
		}
	}
	return nil
}

func printLoadPhase(w io.Writer, ph LoadPhase) {
	fmt.Fprintf(w, "\nphase %-14s offered %.0f QPS, achieved %.0f QPS (completed %.0f), shed %.1f%%, timeout %.1f%%, clientDropped %d\n",
		ph.Name, ph.OfferedQPS, ph.AchievedQPS, ph.CompletedQPS, 100*ph.ShedRate, 100*ph.TimeoutRate, ph.ClientDropped)
	fmt.Fprintf(w, "  caches: query %.3f hit ratio (%d/%d), byte %.3f (%d/%d)\n",
		ph.QueryCache.HitRatio, ph.QueryCache.Hits, ph.QueryCache.Hits+ph.QueryCache.Misses,
		ph.ByteCache.HitRatio, ph.ByteCache.Hits, ph.ByteCache.Hits+ph.ByteCache.Misses)
	fmt.Fprintf(w, "  %-10s %9s %8s %6s %8s %10s %10s %10s %10s\n",
		"class", "requests", "ok", "shed", "timeout", "p50µs", "p95µs", "p99µs", "p99.9µs")
	for _, c := range ph.Classes {
		if c.Requests == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-10s %9d %8d %6d %8d %10.1f %10.1f %10.1f %10.1f\n",
			c.Class, c.Requests, c.OK, c.Shed, c.Timeouts, c.P50Micros, c.P95Micros, c.P99Micros, c.P999Micros)
	}
}
