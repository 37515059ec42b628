package harness

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// TestLoadBenchSmall runs the open-loop experiment at toy scale with explicit
// rates (no calibration) and checks the report's structural invariants: the
// cold + warm-below + warm-above phase shape, rate accounting, per-class
// bookkeeping that sums to the phase totals, and ordered latency quantiles.
func TestLoadBenchSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a knowledge base and offers ~1s of load")
	}
	rep, err := LoadBench(0.05, LoadOptions{
		PhaseDuration: 250 * time.Millisecond,
		Rates:         []float64{100, 400},
		Admission:     "static",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CapacityQPS != 0 {
		t.Errorf("CapacityQPS = %g with explicit rates, want 0 (no calibration)", rep.CapacityQPS)
	}
	if rep.Adaptive != nil {
		t.Errorf("Admission:static still produced an adaptive section")
	}
	wantNames := []string{"cold", "warm-below", "warm-above"}
	if len(rep.Phases) != len(wantNames) {
		t.Fatalf("got %d phases, want %d", len(rep.Phases), len(wantNames))
	}
	wantRates := []float64{100, 100, 400}
	for i, ph := range rep.Phases {
		if ph.Name != wantNames[i] {
			t.Errorf("phase %d name = %q, want %q", i, ph.Name, wantNames[i])
		}
		if ph.OfferedQPS != wantRates[i] {
			t.Errorf("phase %q offeredQPS = %g, want %g", ph.Name, ph.OfferedQPS, wantRates[i])
		}
		if ph.Seconds <= 0 {
			t.Errorf("phase %q seconds = %g, want > 0", ph.Name, ph.Seconds)
		}
		if ph.Requests == 0 {
			t.Errorf("phase %q generated no requests", ph.Name)
		}
		if ph.GeneratedQPS <= 0 {
			t.Errorf("phase %q generatedQPS = %g, want > 0", ph.Name, ph.GeneratedQPS)
		}
		if ph.ShedRate < 0 || ph.ShedRate > 1 {
			t.Errorf("phase %q shedRate = %g outside [0,1]", ph.Name, ph.ShedRate)
		}
		var sum int
		for _, c := range ph.Classes {
			sum += c.Requests
			if got := c.OK + c.Shed + c.Timeouts + c.Errors; got != c.Requests {
				t.Errorf("phase %q class %q: ok+shed+timeouts+errors=%d != requests=%d",
					ph.Name, c.Class, got, c.Requests)
			}
			if c.OK > 0 {
				if c.P50Micros > c.P95Micros || c.P95Micros > c.P99Micros || c.P99Micros > c.P999Micros {
					t.Errorf("phase %q class %q: quantiles out of order: p50=%g p95=%g p99=%g p999=%g",
						ph.Name, c.Class, c.P50Micros, c.P95Micros, c.P99Micros, c.P999Micros)
				}
				if c.P999Micros > c.MaxMicros {
					t.Errorf("phase %q class %q: p999=%g > max=%g", ph.Name, c.Class, c.P999Micros, c.MaxMicros)
				}
			}
		}
		if sum != ph.Requests {
			t.Errorf("phase %q: class requests sum to %d, phase total %d", ph.Name, sum, ph.Requests)
		}
		if r := ph.ByteCache.HitRatio; r < 0 || r > 1 {
			t.Errorf("phase %q byteCache hitRatio = %g outside [0,1]", ph.Name, r)
		}
	}
	// Warm phases on the same server must see a byte cache at least as warm
	// as the cold phase's.
	if cold, warm := rep.Phases[0].ByteCache.HitRatio, rep.Phases[1].ByteCache.HitRatio; warm < cold {
		t.Errorf("warm-below byte-cache hit ratio %g below cold phase's %g", warm, cold)
	}

	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("report does not marshal: %v", err)
	}
	var back LoadReport
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if len(back.Phases) != len(rep.Phases) {
		t.Errorf("round-trip lost phases: %d != %d", len(back.Phases), len(rep.Phases))
	}
}

// TestLoadBenchAdaptiveSmall runs the default (adaptive) experiment at toy
// scale and checks the adaptive section's shape: the ramp + steady phases, a
// non-empty limit trajectory that stays within the controller's bounds, a
// converged limit inside [min,max], and the per-class p99 comparison against
// the static warm-above phase.
func TestLoadBenchAdaptiveSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two knowledge bases and offers ~2s of load")
	}
	rep, err := LoadBench(0.05, LoadOptions{
		PhaseDuration: 250 * time.Millisecond,
		Rates:         []float64{100, 400},
	})
	if err != nil {
		t.Fatal(err)
	}
	ad := rep.Adaptive
	if ad == nil {
		t.Fatal("default options produced no adaptive section")
	}
	if ad.MinLimit <= 0 || ad.MaxLimit < ad.MinLimit {
		t.Fatalf("bounds [%d,%d] malformed", ad.MinLimit, ad.MaxLimit)
	}
	if len(ad.Trajectory) == 0 {
		t.Fatal("empty limit trajectory")
	}
	lastOff := -1.0
	for i, s := range ad.Trajectory {
		if s.Limit < ad.MinLimit || s.Limit > ad.MaxLimit {
			t.Errorf("trajectory[%d]: limit %d outside [%d,%d]", i, s.Limit, ad.MinLimit, ad.MaxLimit)
		}
		if s.OffsetMillis <= lastOff {
			t.Errorf("trajectory[%d]: offset %g not increasing (prev %g)", i, s.OffsetMillis, lastOff)
		}
		lastOff = s.OffsetMillis
		if s.OfferedQPS < 100 || s.OfferedQPS > 400 {
			t.Errorf("trajectory[%d]: offeredQPS %g outside the [100,400] schedule", i, s.OfferedQPS)
		}
		if s.InFlight < 0 {
			t.Errorf("trajectory[%d]: inFlight %d < 0", i, s.InFlight)
		}
	}
	if ad.ConvergedLimit < ad.MinLimit || ad.ConvergedLimit > ad.MaxLimit {
		t.Errorf("convergedLimit %d outside [%d,%d]", ad.ConvergedLimit, ad.MinLimit, ad.MaxLimit)
	}
	wantNames := []string{"adaptive-ramp", "adaptive-above"}
	if len(ad.Phases) != len(wantNames) {
		t.Fatalf("adaptive section has %d phases, want %d", len(ad.Phases), len(wantNames))
	}
	for i, ph := range ad.Phases {
		if ph.Name != wantNames[i] {
			t.Errorf("adaptive phase %d = %q, want %q", i, ph.Name, wantNames[i])
		}
		if ph.Requests == 0 {
			t.Errorf("adaptive phase %q generated no requests", ph.Name)
		}
		var sum int
		for _, c := range ph.Classes {
			sum += c.Requests
			if got := c.OK + c.Shed + c.Timeouts + c.Errors; got != c.Requests {
				t.Errorf("adaptive phase %q class %q: ok+shed+timeouts+errors=%d != requests=%d",
					ph.Name, c.Class, got, c.Requests)
			}
		}
		if sum != ph.Requests {
			t.Errorf("adaptive phase %q: class requests sum to %d, phase total %d", ph.Name, sum, ph.Requests)
		}
	}
	if len(ad.P99VsStatic) == 0 {
		t.Error("no per-class p99 comparison against the static warm-above phase")
	}
	for _, c := range ad.P99VsStatic {
		if c.Class == "" {
			t.Errorf("p99VsStatic entry with empty class: %+v", c)
		}
	}

	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("report does not marshal: %v", err)
	}
	var back LoadReport
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if back.Adaptive == nil || len(back.Adaptive.Trajectory) != len(ad.Trajectory) {
		t.Error("round-trip lost the adaptive section")
	}
}

// TestLoadBenchRejectsUnusableRates: a zero, negative or non-finite offered
// rate used to send the arrival clock backwards and spin the phase forever;
// LoadBench must refuse it up front, naming the value. The deadline turns the
// old hang into a failure instead of a stuck test binary.
func TestLoadBenchRejectsUnusableRates(t *testing.T) {
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		done := make(chan error, 1)
		go func() {
			_, err := LoadBench(0.05, LoadOptions{
				PhaseDuration: 50 * time.Millisecond,
				Rates:         []float64{bad, 100},
				Admission:     "static",
			})
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), fmt.Sprint(bad)) {
				t.Errorf("rate %v: err = %v, want an error naming the rate", bad, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("rate %v: LoadBench still running after 10s", bad)
		}
	}
}
