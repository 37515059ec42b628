package server

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"tara/internal/obs"
)

// Admission control.
//
// A fixed in-flight cap is the right shape but the wrong number on every box
// except the one it was tuned on: too high and overload shows up as queueing
// delay and timeout storms before a single request sheds; too low and the box
// idles while clients are refused. So every Server admits through a
// latency-feedback AIMD controller over a dynamic-limit semaphore, with
// Config.MaxInFlight as the hard upper bound. A fixed cap is the special case
// MinLimit = MaxInFlight.
//
// Two layers:
//
//   - qosSem: a semaphore whose limit can change at runtime, with weighted
//     per-class slot guarantees. Query classes are grouped into QoS classes
//     by the Interactive column of query.Classes (interactive:
//     mine/count/recommend/drill — the cheap, byte-cacheable point lookups;
//     analytic: every other class — the multi-window scans). Each class is
//     guaranteed a weighted share of the limit; a class past its share may
//     borrow idle slots, but never the last free slot of a class still
//     below its guarantee — so during a shed episode the expensive classes
//     cannot starve the cheap ones, while an idle
//     class's share stays available for borrowing (work-conserving). That
//     reserve is why the limit never drops below numQoSClasses: at limit 1
//     the analytic class could never be admitted.
//
//   - aimdController: additive-increase / multiplicative-decrease on the
//     semaphore's limit, driven by the p99 of admitted-request service
//     latency over short windows against a drift-bounded minimum baseline
//     (the controller's estimate of the un-queued service tail). Healthy
//     window with the limiter binding: limit += 1. Window p99 beyond
//     tolerance x baseline: limit = limit * backoff. Always clamped to
//     [minLimit, maxLimit]. The clock is injectable, so tests drive window
//     rolls deterministically.

// QoS classes: indexes into qosClasses and every per-class array.
const (
	qosInteractive = iota
	qosAnalytic
	numQoSClasses
)

// qosClasses names the QoS classes and fixes their guarantee weights:
// interactive gets 3 slots for every 1 analytic slot. The split follows
// measured cost, not endpoint prestige — an interactive query is a single
// canonical-cut lookup (often a byte-cache or query-cache hit), an analytic
// query walks many windows or materializes cross-window state.
var qosClasses = [numQoSClasses]struct {
	name   string
	weight int
}{
	{name: "interactive", weight: 3},
	{name: "analytic", weight: 1},
}

// qosCounters is one QoS class's admission bookkeeping. Ordering discipline
// (the same one endpointStats uses): requests is bumped on ENTRY to acquire,
// before any outcome lands, and outcomes are written admitted-then-borrowed;
// snapshot readers load borrowed, then admitted, then shed, then requests —
// so borrowed <= admitted and admitted+shed <= requests hold in every
// concurrently observed snapshot.
type qosCounters struct {
	requests atomic.Uint64
	admitted atomic.Uint64
	shed     atomic.Uint64
	borrowed atomic.Uint64
}

// qosWaiter is one queued acquire. granted is written under the semaphore
// mutex before ready is closed; a waiter whose timer raced the grant checks
// it under the same mutex and keeps the slot.
type qosWaiter struct {
	class   int
	borrow  bool
	granted bool
	ready   chan struct{}
}

// qosSem is a dynamic-limit counting semaphore with weighted per-class
// guarantees and FIFO-scan queued admission.
type qosSem struct {
	mu        sync.Mutex
	limit     int
	total     int
	inflight  [numQoSClasses]int
	guarantee [numQoSClasses]int
	waiters   []*qosWaiter

	counters [numQoSClasses]qosCounters
}

func newQoSSem(limit int) *qosSem {
	s := &qosSem{}
	s.setLimit(limit)
	return s
}

// computeGuarantees splits limit slots among the QoS classes proportionally
// to weight (largest-remainder rounding, ties to the lower index), so the
// guarantees always sum exactly to the limit.
func computeGuarantees(limit int) [numQoSClasses]int {
	var g [numQoSClasses]int
	if limit <= 0 {
		return g
	}
	totalW := 0
	for _, c := range qosClasses {
		totalW += c.weight
	}
	assigned := 0
	var rem [numQoSClasses]int
	for i, c := range qosClasses {
		g[i] = limit * c.weight / totalW
		rem[i] = limit * c.weight % totalW
		assigned += g[i]
	}
	for assigned < limit {
		best := 0
		for i := 1; i < numQoSClasses; i++ {
			if rem[i] > rem[best] {
				best = i
			}
		}
		g[best]++
		rem[best] = -1
		assigned++
	}
	return g
}

// canAdmit reports whether class c may take a slot right now, and whether
// doing so is a borrow (c at or past its guarantee, dipping into slack).
// A borrower must leave one free slot for every OTHER class still below its
// guarantee — that headroom is what freed slots drain into, so a protected
// class always makes progress toward its share no matter how hungry the
// borrowers are. Callers hold s.mu.
func (s *qosSem) canAdmit(c int) (borrow, ok bool) {
	free := s.limit - s.total
	if free <= 0 {
		return false, false
	}
	if s.inflight[c] < s.guarantee[c] {
		return false, true
	}
	reserved := 0
	for i := range s.guarantee {
		if i != c && s.inflight[i] < s.guarantee[i] {
			reserved++
		}
	}
	return true, free > reserved
}

// admitLocked takes a slot for class c. Callers hold s.mu and have checked
// canAdmit; the borrow/admitted counters are written by the acquiring
// goroutine outside the mutex (see the ordering note on qosCounters).
func (s *qosSem) admitLocked(c int) {
	s.total++
	s.inflight[c]++
}

// acquire takes a slot for class c, queueing up to wait for one when none is
// admissible immediately. It reports whether the slot was granted; the caller
// must release(c) exactly once when it was.
func (s *qosSem) acquire(ctx context.Context, c int, wait time.Duration) bool {
	s.counters[c].requests.Add(1)
	s.mu.Lock()
	if borrow, ok := s.canAdmit(c); ok {
		s.admitLocked(c)
		s.mu.Unlock()
		s.counters[c].admitted.Add(1)
		if borrow {
			s.counters[c].borrowed.Add(1)
		}
		return true
	}
	if wait <= 0 {
		s.mu.Unlock()
		s.counters[c].shed.Add(1)
		return false
	}
	w := &qosWaiter{class: c, ready: make(chan struct{})}
	s.waiters = append(s.waiters, w)
	s.mu.Unlock()

	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-w.ready:
		s.counters[c].admitted.Add(1)
		if w.borrow {
			s.counters[c].borrowed.Add(1)
		}
		return true
	case <-t.C:
	case <-ctx.Done():
		// The client gave up (or the timeout wrapper fired) while queued;
		// shedding is the honest answer — the work never started.
	}
	s.mu.Lock()
	if w.granted {
		// The grant raced the timer: the slot is already accounted to us, so
		// keep it — the handler runs and releases normally.
		s.mu.Unlock()
		s.counters[c].admitted.Add(1)
		if w.borrow {
			s.counters[c].borrowed.Add(1)
		}
		return true
	}
	for i, q := range s.waiters {
		if q == w {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	s.counters[c].shed.Add(1)
	return false
}

// release returns class c's slot and hands freed capacity to queued waiters.
func (s *qosSem) release(c int) {
	s.mu.Lock()
	s.inflight[c]--
	s.total--
	s.grantLocked()
	s.mu.Unlock()
}

// grantLocked admits every queued waiter the current occupancy allows, in
// arrival order per scan — but class-aware: a blocked analytic waiter does
// not wall off an interactive waiter behind it whose guarantee still has
// room. Callers hold s.mu.
func (s *qosSem) grantLocked() {
	kept := s.waiters[:0]
	for _, w := range s.waiters {
		if borrow, ok := s.canAdmit(w.class); ok {
			s.admitLocked(w.class)
			w.borrow = borrow
			w.granted = true
			close(w.ready)
			continue
		}
		kept = append(kept, w)
	}
	s.waiters = kept
}

// setLimit changes the semaphore's limit, recomputes the per-class
// guarantees, and admits any waiters a raised limit now covers. Lowering the
// limit never evicts running requests; occupancy drains down to the new
// limit as they release.
func (s *qosSem) setLimit(n int) {
	s.mu.Lock()
	s.limit = n
	s.guarantee = computeGuarantees(n)
	s.grantLocked()
	s.mu.Unlock()
}

// current returns the total slots held right now.
func (s *qosSem) current() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// aimdConfig parameterizes the controller. The zero value is unusable; use
// defaultAIMDConfig.
type aimdConfig struct {
	// Min and Max clamp the limit; Initial is the cold-start limit.
	Min, Max, Initial int
	// Window is the decision cadence; a window also needs MinSamples
	// observations before the controller acts on it.
	Window     time.Duration
	MinSamples int
	// Tolerance is how far the windowed p99 may run above the baseline
	// before the window counts as a breach.
	Tolerance float64
	// Increase is the additive step on a healthy, limiter-binding window;
	// Backoff is the multiplicative factor on a breach.
	Increase int
	Backoff  float64
	// BaselineDrift relaxes the baseline upward per healthy-or-breached
	// window, so a legitimately slower workload regime does not read as a
	// permanent breach against a stale minimum.
	BaselineDrift float64
	// WindowCap bounds the per-window sample ring.
	WindowCap int
}

// defaultAIMDConfig starts cold at min. New has already checked that
// numQoSClasses <= min <= max.
func defaultAIMDConfig(min, max int) aimdConfig {
	return aimdConfig{
		Min:           min,
		Max:           max,
		Initial:       min,
		Window:        200 * time.Millisecond,
		MinSamples:    20,
		Tolerance:     2.0,
		Increase:      1,
		Backoff:       0.75,
		BaselineDrift: 1.02,
		WindowCap:     2048,
	}
}

// aimdController owns the qosSem limit. observe is called
// once per admitted request (with the slot still held, so the semaphore's
// occupancy includes the observer); everything else is read-only telemetry.
type aimdController struct {
	cfg aimdConfig
	sem *qosSem
	now func() time.Time // injectable clock; time.Now in production

	mu          sync.Mutex
	limit       int
	baselineUS  float64
	win         *obs.SampleWindow
	winStart    time.Time
	winMaxBusy  int  // max semaphore occupancy seen this window
	winHasStart bool // winStart initialized lazily on the first sample

	increases atomic.Uint64
	decreases atomic.Uint64
	holds     atomic.Uint64
}

func newAIMDController(cfg aimdConfig, sem *qosSem, now func() time.Time) *aimdController {
	if now == nil {
		now = time.Now
	}
	if cfg.Initial < cfg.Min {
		cfg.Initial = cfg.Min
	}
	if cfg.Initial > cfg.Max {
		cfg.Initial = cfg.Max
	}
	c := &aimdController{
		cfg:   cfg,
		sem:   sem,
		now:   now,
		limit: cfg.Initial,
		win:   obs.NewSampleWindow(cfg.WindowCap),
	}
	sem.setLimit(c.limit)
	return c
}

// observe feeds one admitted request's service latency (admission to
// completion) into the current window and, when the window is mature, runs
// one AIMD decision:
//
//	breach  (p99 > tolerance*baseline): limit *= backoff   (clamped to min)
//	healthy and the limiter was binding: limit += increase (clamped to max)
//	healthy with slack:                  hold — growing an un-bound limit
//	                                     would only pre-authorize a burst
//
// The baseline is a drift-bounded minimum of windowed p99s: it snaps down to
// any faster window immediately and relaxes upward by BaselineDrift per
// decision otherwise, tracking the un-queued service tail without letting a
// long overload episode teach the controller that congestion is normal.
func (c *aimdController) observe(d time.Duration) {
	us := float64(d) / float64(time.Microsecond)
	busy := c.sem.current()

	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	if !c.winHasStart {
		c.winStart = now
		c.winHasStart = true
	}
	c.win.Add(us)
	if busy > c.winMaxBusy {
		c.winMaxBusy = busy
	}
	if now.Sub(c.winStart) < c.cfg.Window || c.win.Len() < c.cfg.MinSamples {
		return
	}
	p99 := c.win.Quantile(0.99)
	// Binding is measured against the admittable capacity, not the raw
	// limit: the per-class borrow headroom keeps up to numQoSClasses-1
	// slots free while some class is idle, so a single-class workload can
	// never occupy more than limit-1 slots — and would otherwise never
	// look binding no matter how hard it pushes.
	binding := c.winMaxBusy >= c.limit-(numQoSClasses-1)
	c.win.Reset()
	c.winStart = now
	c.winMaxBusy = 0

	if c.baselineUS == 0 || p99 < c.baselineUS {
		c.baselineUS = p99
	} else {
		c.baselineUS *= c.cfg.BaselineDrift
	}

	switch {
	case p99 > c.cfg.Tolerance*c.baselineUS:
		next := int(float64(c.limit) * c.cfg.Backoff)
		if next >= c.limit {
			next = c.limit - 1
		}
		if next < c.cfg.Min {
			next = c.cfg.Min
		}
		if next != c.limit {
			c.limit = next
			c.sem.setLimit(next)
			c.decreases.Add(1)
		} else {
			c.holds.Add(1)
		}
	case binding:
		next := c.limit + c.cfg.Increase
		if next > c.cfg.Max {
			next = c.cfg.Max
		}
		if next != c.limit {
			c.limit = next
			c.sem.setLimit(next)
			c.increases.Add(1)
		} else {
			c.holds.Add(1)
		}
	default:
		c.holds.Add(1)
	}
}

// Limit returns the controller's current limit.
func (c *aimdController) Limit() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.limit
}

// AdmissionClassSnapshot is one QoS class's slice of an AdmissionSnapshot.
type AdmissionClassSnapshot struct {
	Class string `json:"class"`
	// Limit is the class's guaranteed slot share at the current limit;
	// InFlight is its held slots (which can exceed Limit while borrowing).
	Limit    int `json:"limit"`
	InFlight int `json:"inFlight"`
	// Requests counts admission attempts; Admitted and Shed their outcomes;
	// Borrowed the admissions that used another class's idle share.
	Requests uint64 `json:"requests"`
	Admitted uint64 `json:"admitted"`
	Shed     uint64 `json:"shed"`
	Borrowed uint64 `json:"borrowed"`
}

// AdmissionSnapshot is the admission layer's /metrics block.
type AdmissionSnapshot struct {
	// Mode is always "adaptive"; it is kept so /metrics readers and the
	// tarad_admission_info series keep their shape.
	Mode string `json:"mode"`
	// Limit is the in-flight cap in force right now; the controller moves it
	// within [MinLimit, MaxLimit].
	Limit    int `json:"limit"`
	MinLimit int `json:"minLimit,omitempty"`
	MaxLimit int `json:"maxLimit,omitempty"`
	InFlight int `json:"inFlight"`
	// BaselineP99Micros is the controller's current un-queued tail estimate;
	// Increases/Decreases/Holds count its per-window decisions.
	BaselineP99Micros float64                  `json:"baselineP99Micros,omitempty"`
	Increases         uint64                   `json:"increases,omitempty"`
	Decreases         uint64                   `json:"decreases,omitempty"`
	Holds             uint64                   `json:"holds,omitempty"`
	Classes           []AdmissionClassSnapshot `json:"classes,omitempty"`
}

// snapshot assembles the admission view. Per-class outcome counters
// are loaded before requests (and borrowed before admitted), preserving the
// registry-wide snapshot invariants under concurrent traffic.
func (c *aimdController) snapshot() AdmissionSnapshot {
	s := c.sem
	var classes [numQoSClasses]AdmissionClassSnapshot
	for i := range s.counters {
		ct := &s.counters[i]
		borrowed := ct.borrowed.Load()
		admitted := ct.admitted.Load()
		shed := ct.shed.Load()
		classes[i] = AdmissionClassSnapshot{
			Class:    qosClasses[i].name,
			Borrowed: borrowed,
			Admitted: admitted,
			Shed:     shed,
			Requests: ct.requests.Load(),
		}
	}
	c.mu.Lock()
	limit := c.limit
	baseline := c.baselineUS
	c.mu.Unlock()
	s.mu.Lock()
	total := s.total
	for i := range classes {
		classes[i].Limit = s.guarantee[i]
		classes[i].InFlight = s.inflight[i]
	}
	s.mu.Unlock()
	return AdmissionSnapshot{
		Mode:              "adaptive",
		Limit:             limit,
		MinLimit:          c.cfg.Min,
		MaxLimit:          c.cfg.Max,
		InFlight:          total,
		BaselineP99Micros: baseline,
		Increases:         c.increases.Load(),
		Decreases:         c.decreases.Load(),
		Holds:             c.holds.Load(),
		Classes:           classes[:],
	}
}
