package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestComputeGuarantees(t *testing.T) {
	cases := []struct {
		limit int
		want  [numQoSClasses]int
	}{
		{0, [numQoSClasses]int{0, 0}},
		{1, [numQoSClasses]int{1, 0}},
		{2, [numQoSClasses]int{2, 0}},
		{3, [numQoSClasses]int{2, 1}},
		{4, [numQoSClasses]int{3, 1}},
		{8, [numQoSClasses]int{6, 2}},
		{256, [numQoSClasses]int{192, 64}},
	}
	for _, c := range cases {
		got := computeGuarantees(c.limit)
		if got != c.want {
			t.Errorf("computeGuarantees(%d) = %v, want %v", c.limit, got, c.want)
		}
		sum := 0
		for _, g := range got {
			sum += g
		}
		if c.limit > 0 && sum != c.limit {
			t.Errorf("computeGuarantees(%d) sums to %d, want the full limit", c.limit, sum)
		}
	}
}

// TestQoSSemBorrowHeadroom checks the anti-starvation contract directly on
// the semaphore: with limit 4 (guarantees 3 interactive / 1 analytic), the
// analytic class may borrow idle interactive slots but never the last free
// slot, so an arriving interactive request is always admitted.
func TestQoSSemBorrowHeadroom(t *testing.T) {
	s := newQoSSem(4)
	ctx := context.Background()

	got := 0
	for s.acquire(ctx, qosAnalytic, 0) {
		got++
	}
	if got != 3 {
		t.Fatalf("analytic acquired %d of 4 slots, want 3 (one reserved for interactive)", got)
	}
	if b := s.counters[qosAnalytic].borrowed.Load(); b != 2 {
		t.Errorf("analytic borrowed = %d, want 2 (slots beyond its guarantee of 1)", b)
	}
	if sh := s.counters[qosAnalytic].shed.Load(); sh != 1 {
		t.Errorf("analytic shed = %d, want 1 (the refused borrow)", sh)
	}
	if !s.acquire(ctx, qosInteractive, 0) {
		t.Fatal("interactive refused while below its guarantee — starved by analytic borrowers")
	}
	// Semaphore is now exactly full; everyone is refused without a wait.
	if s.acquire(ctx, qosInteractive, 0) || s.acquire(ctx, qosAnalytic, 0) {
		t.Fatal("admission past the limit")
	}
	// A freed borrowed slot must flow to a queued interactive waiter, not
	// back to an analytic borrower queued ahead of it.
	results := make(chan string, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if s.acquire(ctx, qosAnalytic, time.Second) {
			results <- "analytic"
		}
	}()
	time.Sleep(20 * time.Millisecond) // analytic queues first
	go func() {
		defer wg.Done()
		if s.acquire(ctx, qosInteractive, time.Second) {
			results <- "interactive"
		}
	}()
	time.Sleep(20 * time.Millisecond)
	s.release(qosAnalytic)
	if first := <-results; first != "interactive" {
		t.Errorf("first granted waiter = %q, want interactive (class-aware grant)", first)
	}
	// The queued analytic waiter still may not take the LAST free slot while
	// interactive sits below its guarantee; freeing an interactive slot
	// restores borrow headroom and drains it.
	s.release(qosAnalytic)
	s.release(qosInteractive)
	if second := <-results; second != "analytic" {
		t.Errorf("second granted waiter = %q, want analytic (borrow headroom restored)", second)
	}
	wg.Wait()
}

// TestQoSSemSetLimitWakesWaiters queues a waiter against a full semaphore
// and checks that raising the limit grants it without any release.
func TestQoSSemSetLimitWakesWaiters(t *testing.T) {
	s := newQoSSem(1)
	ctx := context.Background()
	if !s.acquire(ctx, qosInteractive, 0) {
		t.Fatal("first acquire refused")
	}
	granted := make(chan bool, 1)
	go func() { granted <- s.acquire(ctx, qosInteractive, 5*time.Second) }()
	time.Sleep(20 * time.Millisecond)
	s.setLimit(2)
	select {
	case ok := <-granted:
		if !ok {
			t.Fatal("waiter shed after limit raise")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter not granted after limit raise")
	}
}

// fakeClock is the controller's injectable deterministic clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// aimdHarness drives a controller with a deterministic clock. fill/drain
// saturate the semaphore so healthy windows count as limiter-binding.
type aimdHarness struct {
	clock *fakeClock
	sem   *qosSem
	ctrl  *aimdController
}

func newAIMDHarness(cfg aimdConfig) *aimdHarness {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	sem := newQoSSem(1)
	return &aimdHarness{clock: clock, sem: sem, ctrl: newAIMDController(cfg, sem, clock.Now)}
}

// window feeds one decision window: n samples of latency d with the
// semaphore held full (binding), then a clock step past the window edge and
// one more sample to trigger the decision.
func (h *aimdHarness) window(t *testing.T, n int, d time.Duration) {
	t.Helper()
	ctx := context.Background()
	held := 0
	for h.sem.acquire(ctx, qosInteractive, 0) {
		held++
	}
	for i := 0; i < n-1; i++ {
		h.ctrl.observe(d)
	}
	h.clock.Advance(h.ctrl.cfg.Window)
	h.ctrl.observe(d) // window mature: this observation decides
	for ; held > 0; held-- {
		h.sem.release(qosInteractive)
	}
}

func testAIMDConfig() aimdConfig {
	return aimdConfig{
		Min: 2, Max: 16, Initial: 2,
		Window:     100 * time.Millisecond,
		MinSamples: 4,
		Tolerance:  2.0,
		Increase:   1,
		Backoff:    0.5,
		// No drift: the baseline pins to the fastest window, making breach
		// arithmetic exact in these tests.
		BaselineDrift: 1.0,
		WindowCap:     256,
	}
}

// TestAIMDAdditiveIncrease: healthy, limiter-binding windows grow the limit
// one step per window and clamp at Max.
func TestAIMDAdditiveIncrease(t *testing.T) {
	h := newAIMDHarness(testAIMDConfig())
	for i := 0; i < 40; i++ {
		h.window(t, 8, time.Millisecond)
	}
	if got := h.ctrl.Limit(); got != 16 {
		t.Errorf("limit after 40 healthy binding windows = %d, want clamped Max 16", got)
	}
	if inc := h.ctrl.increases.Load(); inc != 14 {
		t.Errorf("increases = %d, want 14 (2 -> 16 by +1)", inc)
	}
}

// TestAIMDMultiplicativeDecrease: a sustained p99 breach halves the limit per
// window until the Min clamp.
func TestAIMDMultiplicativeDecrease(t *testing.T) {
	h := newAIMDHarness(testAIMDConfig())
	// Establish a 1ms baseline and grow to the max.
	for i := 0; i < 20; i++ {
		h.window(t, 8, time.Millisecond)
	}
	if got := h.ctrl.Limit(); got != 16 {
		t.Fatalf("limit after growth = %d, want 16", got)
	}
	// 10ms >> tolerance(2) * baseline(1ms): every window is a breach.
	h.window(t, 8, 10*time.Millisecond)
	if got := h.ctrl.Limit(); got != 8 {
		t.Errorf("limit after first breach window = %d, want 8 (x0.5)", got)
	}
	for i := 0; i < 5; i++ {
		h.window(t, 8, 10*time.Millisecond)
	}
	if got := h.ctrl.Limit(); got != 2 {
		t.Errorf("limit after sustained breach = %d, want Min 2", got)
	}
	if dec := h.ctrl.decreases.Load(); dec != 3 {
		t.Errorf("decreases = %d, want 3 (16 -> 8 -> 4 -> 2)", dec)
	}
}

// TestAIMDRecovery: after a breach-driven collapse, healthy windows grow the
// limit again.
func TestAIMDRecovery(t *testing.T) {
	h := newAIMDHarness(testAIMDConfig())
	for i := 0; i < 10; i++ {
		h.window(t, 8, time.Millisecond)
	}
	for i := 0; i < 8; i++ {
		h.window(t, 8, 20*time.Millisecond) // overload episode
	}
	if got := h.ctrl.Limit(); got != 2 {
		t.Fatalf("limit after overload = %d, want Min 2", got)
	}
	for i := 0; i < 6; i++ {
		h.window(t, 8, time.Millisecond) // load drops: healthy again
	}
	if got := h.ctrl.Limit(); got != 8 {
		t.Errorf("limit after recovery = %d, want 8 (2 + 6 healthy windows)", got)
	}
}

// TestAIMDBoundsProperty feeds pseudo-random latency sequences (with random
// window fills, some non-binding) and asserts the limit never leaves
// [Min, Max] and that a mature window always lands exactly one decision.
func TestAIMDBoundsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		cfg := testAIMDConfig()
		cfg.Min = 1 + r.Intn(4)
		cfg.Max = cfg.Min + r.Intn(30)
		cfg.Initial = cfg.Min + r.Intn(cfg.Max-cfg.Min+1)
		cfg.BaselineDrift = 1.0 + r.Float64()*0.05
		h := newAIMDHarness(cfg)
		for w := 0; w < 60; w++ {
			lat := time.Duration(1+r.Intn(20000)) * time.Microsecond
			if r.Intn(3) == 0 {
				// Non-binding window: observe without holding the semaphore
				// full, then advance past the edge.
				for i := 0; i < cfg.MinSamples; i++ {
					h.ctrl.observe(lat)
				}
				h.clock.Advance(cfg.Window)
				h.ctrl.observe(lat)
			} else {
				h.window(t, cfg.MinSamples+r.Intn(8), lat)
			}
			if got := h.ctrl.Limit(); got < cfg.Min || got > cfg.Max {
				t.Fatalf("trial %d window %d: limit %d outside [%d,%d]", trial, w, got, cfg.Min, cfg.Max)
			}
		}
		decisions := h.ctrl.increases.Load() + h.ctrl.decreases.Load() + h.ctrl.holds.Load()
		if decisions != 60 {
			t.Errorf("trial %d: %d decisions over 60 mature windows", trial, decisions)
		}
	}
}

// TestAdaptiveServerEndToEnd boots a server, serves mixed
// classes, and checks the admission block on /metrics JSON and the
// Prometheus exposition (including conformance of the new series).
func TestAdaptiveServerEndToEnd(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 8, MinLimit: 2, ByteCacheBytes: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	paths := []string{
		"/mine?w=0&supp=0.02&conf=0.2",
		"/count?w=0&supp=0.02&conf=0.2",
		"/trajectory?w=0&supp=0.02&conf=0.2&in=0,1,2,3",
		"/rollup?from=0&to=3&supp=0.02&conf=0.2",
	}
	for i := 0; i < 3; i++ {
		for _, p := range paths {
			if st, body := get(t, ts.URL, p); st != http.StatusOK {
				t.Fatalf("GET %s: %d: %s", p, st, body)
			}
		}
	}

	var snap MetricsSnapshot
	if st, body := get(t, ts.URL, "/metrics"); st != http.StatusOK {
		t.Fatalf("GET /metrics: %d", st)
	} else if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	a := snap.Admission
	if a.Mode != "adaptive" {
		t.Errorf("admission.mode = %q, want adaptive", a.Mode)
	}
	if a.Limit < a.MinLimit || a.Limit > a.MaxLimit {
		t.Errorf("admission.limit %d outside [%d,%d]", a.Limit, a.MinLimit, a.MaxLimit)
	}
	if a.MinLimit != 2 || a.MaxLimit != 8 {
		t.Errorf("bounds = [%d,%d], want [2,8]", a.MinLimit, a.MaxLimit)
	}
	if len(a.Classes) != numQoSClasses {
		t.Fatalf("admission.classes has %d entries, want %d", len(a.Classes), numQoSClasses)
	}
	byName := map[string]AdmissionClassSnapshot{}
	sumGuarantee := 0
	for _, c := range a.Classes {
		byName[c.Class] = c
		sumGuarantee += c.Limit
		if c.Admitted+c.Shed > c.Requests {
			t.Errorf("class %s: admitted+shed=%d > requests=%d", c.Class, c.Admitted+c.Shed, c.Requests)
		}
	}
	if sumGuarantee != a.Limit {
		t.Errorf("class guarantees sum to %d, want the limit %d", sumGuarantee, a.Limit)
	}
	if byName["interactive"].Admitted == 0 || byName["analytic"].Admitted == 0 {
		t.Errorf("expected admissions in both classes: %+v", a.Classes)
	}

	st, body := get(t, ts.URL, "/metrics?format=prometheus")
	if st != http.StatusOK {
		t.Fatalf("GET /metrics?format=prometheus: %d", st)
	}
	text := string(body)
	checkPromExposition(t, text)
	for _, series := range []string{
		`tarad_admission_info{mode="adaptive"} 1`,
		`tarad_admission_limit{class="total"}`,
		`tarad_admission_limit{class="interactive"}`,
		`tarad_admission_limit{class="analytic"}`,
		`tarad_admission_shed_total{class="interactive"}`,
		`tarad_admission_shed_total{class="analytic"}`,
		`tarad_admission_borrowed_total{class="analytic"}`,
		`tarad_admission_limit_changes_total{direction="up"}`,
		`tarad_admission_baseline_p99_seconds`,
	} {
		if !strings.Contains(text, series) {
			t.Errorf("prometheus exposition missing %s", series)
		}
	}
}

// TestAdaptiveModeValidation covers the constructor's limit defaults: the
// zero Config is the daemon's default bounds, and a MinLimit above
// MaxInFlight clamps instead of failing.
func TestAdaptiveModeValidation(t *testing.T) {
	fw := testFramework(t)
	s, err := New(Config{Framework: fw, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	if a := s.ctrl.snapshot(); a.MinLimit != 2 || a.MaxLimit != 256 || a.Limit != 2 {
		t.Errorf("zero Config: limit %d in [%d,%d], want 2 in [2,256]", a.Limit, a.MinLimit, a.MaxLimit)
	}
	s, err = New(Config{Framework: fw, Logger: quietLogger(), MaxInFlight: 4, MinLimit: 99})
	if err != nil {
		t.Fatalf("MinLimit > MaxInFlight: %v", err)
	}
	if got := s.ctrl.snapshot().Limit; got != 4 {
		t.Errorf("clamped limit = %d, want 4", got)
	}
}

// TestAdmissionLimitFloor: a limit below one slot per QoS class is refused,
// naming the field and the value. At limit 1 the analytic guarantee is 0 and
// a borrower must leave the last slot to interactive, so an idle server shed
// every analytic request forever; a negative MaxInFlight used to mean "no
// limiter".
func TestAdmissionLimitFloor(t *testing.T) {
	fw := testFramework(t)
	for _, c := range []struct {
		cfg  Config
		want string
	}{
		{Config{MinLimit: -1}, "MinLimit -1"},
		{Config{MinLimit: 1}, "MinLimit 1"},
		{Config{MaxInFlight: 8, MinLimit: 1}, "MinLimit 1"},
		{Config{MaxInFlight: -1}, "MaxInFlight -1"},
		{Config{MaxInFlight: 1}, "MaxInFlight 1"},
	} {
		c.cfg.Framework, c.cfg.Logger = fw, quietLogger()
		if _, err := New(c.cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("MaxInFlight %d, MinLimit %d: err = %v, want an error naming %q",
				c.cfg.MaxInFlight, c.cfg.MinLimit, err, c.want)
		}
	}
}

// TestSmallestLimitAdmitsEveryClass: at the smallest accepted limit an idle
// server admits one request of each QoS class.
func TestSmallestLimitAdmitsEveryClass(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: numQoSClasses, ByteCacheBytes: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, p := range []string{
		"/mine?w=0&supp=0.02&conf=0.2",                  // interactive
		"/trajectory?w=0&supp=0.02&conf=0.2&in=0,1,2,3", // analytic
	} {
		if st, body := get(t, ts.URL, p); st != http.StatusOK {
			t.Errorf("GET %s on an idle server at limit %d: %d: %s", p, numQoSClasses, st, body)
		}
	}
}

// TestAdmissionConfigOverrides checks the AdmissionWindow and
// AdmissionTolerance plumbing: Config values reach the AIMD controller, and
// zero values keep the defaults.
func TestAdmissionConfigOverrides(t *testing.T) {
	fw := testFramework(t)
	s, err := New(Config{
		Framework: fw, Logger: quietLogger(), MaxInFlight: 8,
		AdmissionWindow:    50 * time.Millisecond,
		AdmissionTolerance: 3.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.ctrl.cfg.Window; got != 50*time.Millisecond {
		t.Errorf("Window = %v, want 50ms", got)
	}
	if got := s.ctrl.cfg.Tolerance; got != 3.5 {
		t.Errorf("Tolerance = %v, want 3.5", got)
	}
	s, err = New(Config{Framework: fw, Logger: quietLogger(), MaxInFlight: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.ctrl.cfg.Window; got != 200*time.Millisecond {
		t.Errorf("default Window = %v, want 200ms", got)
	}
	if got := s.ctrl.cfg.Tolerance; got != 2.0 {
		t.Errorf("default Tolerance = %v, want 2.0", got)
	}
}

// TestAdmissionToleranceRejected: a tolerance the controller cannot use is
// refused, naming the value. NaN used to fall back to the default silently,
// +Inf never breached, and anything below 1 breached every mature window.
func TestAdmissionToleranceRejected(t *testing.T) {
	fw := testFramework(t)
	for _, tol := range []float64{math.NaN(), math.Inf(1), -1, 0.5} {
		_, err := New(Config{
			Framework: fw, Logger: quietLogger(), MaxInFlight: 8,
			AdmissionTolerance: tol,
		})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprint(tol)) {
			t.Errorf("AdmissionTolerance %v: err = %v, want an error naming the value", tol, err)
		}
	}
}

// TestAdaptiveShedOrderingConsistency is the adaptive twin of
// TestShedOrderingConsistency, extended to the per-QoS-class admission
// counters: under mixed-class shed traffic with the controller moving the
// limit, every concurrently observed snapshot must satisfy, per class,
// borrowed <= admitted, admitted+shed <= requests, and a limit within
// bounds. Run with -race.
func TestAdaptiveShedOrderingConsistency(t *testing.T) {
	s := newTestServer(t, Config{
		MinLimit:       2,
		MaxInFlight:    4,
		ByteCacheBytes: -1,
	})
	s.delay = func(string) { time.Sleep(200 * time.Microsecond) }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	urls := []string{
		ts.URL + "/mine?w=0&supp=0.02&conf=0.2",
		ts.URL + "/count?w=0&supp=0.02&conf=0.2",
		ts.URL + "/trajectory?w=0&supp=0.02&conf=0.2&in=0,1,2,3",
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; !stop.Load(); j++ {
				resp, err := http.Get(urls[(i+j)%len(urls)])
				if err != nil {
					t.Errorf("GET: %v", err)
					return
				}
				resp.Body.Close()
			}
		}(i)
	}

	deadline := time.Now().Add(300 * time.Millisecond)
	var sawShed bool
	for time.Now().Before(deadline) {
		a := s.ctrl.snapshot()
		if a.Limit < a.MinLimit || a.Limit > a.MaxLimit {
			t.Fatalf("limit %d outside [%d,%d]", a.Limit, a.MinLimit, a.MaxLimit)
		}
		if a.InFlight < 0 {
			t.Fatalf("inFlight = %d < 0", a.InFlight)
		}
		for _, c := range a.Classes {
			if c.Shed > c.Requests {
				t.Fatalf("class %s: shed=%d > requests=%d", c.Class, c.Shed, c.Requests)
			}
			if c.Admitted+c.Shed > c.Requests {
				t.Fatalf("class %s: admitted+shed=%d > requests=%d", c.Class, c.Admitted+c.Shed, c.Requests)
			}
			if c.Borrowed > c.Admitted {
				t.Fatalf("class %s: borrowed=%d > admitted=%d", c.Class, c.Borrowed, c.Admitted)
			}
			if c.Shed > 0 {
				sawShed = true
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if !sawShed {
		t.Error("expected per-class sheds with maxinflight 4 and 8 clients")
	}
	if got := s.ctrl.snapshot().InFlight; got != 0 {
		t.Errorf("inFlight=%d after traffic stopped, want 0", got)
	}
}

// TestDaemonUsageListsAdmissionFlags runs the shared tarad/`tara serve` flag
// set's usage output (daemon.go is the single flag source for both binaries)
// and checks every admission-related flag is present and documented. The
// controller's cadence and tolerance are library-only Config fields, not
// flags.
func TestDaemonUsageListsAdmissionFlags(t *testing.T) {
	var buf strings.Builder
	err := Run([]string{"-h"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "help requested") {
		t.Fatalf("Run(-h) err = %v, want flag.ErrHelp", err)
	}
	usage := buf.String()
	for _, flagName := range []string{
		"-addr", "-maxinflight", "-queuewait", "-minlimit",
		"-timeout", "-cachebytes", "-gzip", "-slowtraces", "-mmap",
	} {
		if !strings.Contains(usage, fmt.Sprintf("\n  %s ", flagName)) &&
			!strings.Contains(usage, fmt.Sprintf("\n  %s\n", flagName)) {
			t.Errorf("usage output missing %s:\n%s", flagName, usage)
		}
	}
	for _, def := range []string{"(default 256)", "(default 2)"} {
		if !strings.Contains(usage, def) {
			t.Errorf("usage output missing default %q", def)
		}
	}
	for _, gone := range []string{"-admissionwindow", "-admissiontolerance", "-bytecache", "-gzipmin"} {
		if strings.Contains(usage, gone) {
			t.Errorf("usage output still lists %s:\n%s", gone, usage)
		}
	}
}
