package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tara/internal/obs"
)

// TestShedOrderingConsistency drives a MaxInFlight=2 server with enough
// concurrency that most requests are shed, while a reader loops over
// snapshots. The lock-free counters promise that every snapshot — taken at
// any instant, under -race — satisfies shed+timeouts+errors <= requests and
// latency.count <= requests, because requests is bumped on handler entry and
// outcome counters are loaded before requests.
func TestShedOrderingConsistency(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 2, ByteCacheBytes: -1})
	s.delay = func(string) { time.Sleep(200 * time.Microsecond) }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				resp, err := http.Get(ts.URL + "/mine?w=0&supp=0.02&conf=0.2")
				if err != nil {
					t.Errorf("GET /mine: %v", err)
					return
				}
				resp.Body.Close()
			}
		}()
	}

	deadline := time.Now().Add(300 * time.Millisecond)
	var sawShed bool
	for time.Now().Before(deadline) {
		snap := s.metrics.snapshot()
		ep := snap.Endpoints["mine"]
		// A shed request is also an error (429 >= 400), so the counters
		// overlap; each one is individually bounded by requests.
		if ep.Shed > ep.Requests {
			t.Fatalf("snapshot violates ordering: shed=%d > requests=%d", ep.Shed, ep.Requests)
		}
		if ep.Timeouts > ep.Requests {
			t.Fatalf("snapshot violates ordering: timeouts=%d > requests=%d", ep.Timeouts, ep.Requests)
		}
		if ep.Errors > ep.Requests {
			t.Fatalf("snapshot violates ordering: errors=%d > requests=%d", ep.Errors, ep.Requests)
		}
		if ep.Latency.Count > ep.Requests {
			t.Fatalf("snapshot violates ordering: latency.count=%d > requests=%d", ep.Latency.Count, ep.Requests)
		}
		if ep.QueueWait.Count > ep.Requests {
			t.Fatalf("snapshot violates ordering: queueWait.count=%d > requests=%d", ep.QueueWait.Count, ep.Requests)
		}
		if ep.InFlight < 0 {
			t.Fatalf("snapshot violates ordering: inFlight=%d < 0", ep.InFlight)
		}
		if ep.Shed > 0 {
			sawShed = true
		}
	}
	stop.Store(true)
	wg.Wait()
	if !sawShed {
		t.Error("expected at least one shed request with MaxInFlight=2 and 8 clients")
	}
	// The gauge drops in a deferred call that runs after the response is on
	// the wire, so the last client can return before its handler does.
	drained := time.Now().Add(2 * time.Second)
	for s.metrics.snapshot().Endpoints["mine"].InFlight != 0 && time.Now().Before(drained) {
		time.Sleep(time.Millisecond)
	}
	if ep := s.metrics.snapshot().Endpoints["mine"]; ep.InFlight != 0 {
		t.Errorf("inFlight=%d after traffic stopped, want 0", ep.InFlight)
	}
}

// TestInFlightGauge parks one request inside the handler and watches the
// per-endpoint gauge rise to 1 and fall back to 0 after release.
func TestInFlightGauge(t *testing.T) {
	s := newTestServer(t, Config{ByteCacheBytes: -1})
	entered := make(chan struct{})
	release := make(chan struct{})
	s.delay = func(string) {
		close(entered)
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/count?w=0&supp=0.02&conf=0.2")
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()

	<-entered
	if got := s.metrics.snapshot().Endpoints["count"].InFlight; got != 1 {
		t.Errorf("inFlight while parked = %d, want 1", got)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("GET /count: %v", err)
	}
	if got := s.metrics.snapshot().Endpoints["count"].InFlight; got != 0 {
		t.Errorf("inFlight after completion = %d, want 0", got)
	}
}

// TestQueueWaitAdmission pins both in-flight slots and checks the two
// admission policies: with a queue-wait budget the next request waits for a
// slot and succeeds; with none it is shed the moment the probe fails.
func TestQueueWaitAdmission(t *testing.T) {
	const slots = 2
	// holdSlots starts a server at MaxInFlight 2 whose first two requests
	// park inside the handler until release is closed; it returns once both
	// hold their slot, with a channel that yields their statuses.
	holdSlots := func(t *testing.T, queueWait time.Duration) (s *Server, url string, release chan struct{}, done chan int) {
		s = newTestServer(t, Config{MaxInFlight: slots, QueueWait: queueWait, ByteCacheBytes: -1})
		entered := make(chan struct{}, slots)
		release = make(chan struct{})
		var held atomic.Int32
		s.delay = func(string) {
			if held.Add(1) <= slots {
				entered <- struct{}{}
				<-release
			}
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		done = make(chan int, slots)
		for i := 0; i < slots; i++ {
			go func() {
				st, _ := get(t, ts.URL, "/mine?w=0&supp=0.02&conf=0.2")
				done <- st
			}()
		}
		for i := 0; i < slots; i++ {
			<-entered
		}
		return s, ts.URL, release, done
	}
	checkHolders := func(t *testing.T, done chan int) {
		for i := 0; i < slots; i++ {
			if st := <-done; st != http.StatusOK {
				t.Errorf("holder status = %d, want 200", st)
			}
		}
	}

	t.Run("bounded wait admits", func(t *testing.T) {
		s, url, release, done := holdSlots(t, 5*time.Second)
		queued := make(chan int, 1)
		go func() {
			st, _ := get(t, url, "/mine?w=1&supp=0.02&conf=0.2")
			queued <- st
		}()
		// Give the queued request time to reach the queue, then free the slots.
		time.Sleep(50 * time.Millisecond)
		close(release)

		checkHolders(t, done)
		if st := <-queued; st != http.StatusOK {
			t.Errorf("queued request status = %d, want 200 (admitted after wait)", st)
		}
		ep := s.metrics.snapshot().Endpoints["mine"]
		if ep.Shed != 0 {
			t.Errorf("shed = %d, want 0 with a 5s queue-wait budget", ep.Shed)
		}
		if ep.QueueWait.Count != slots+1 {
			t.Errorf("queueWait.count = %d, want %d (every request admitted)", ep.QueueWait.Count, slots+1)
		}
	})

	t.Run("zero wait sheds", func(t *testing.T) {
		s, url, release, done := holdSlots(t, 0)
		st, body := get(t, url, "/mine?w=1&supp=0.02&conf=0.2")
		if st != http.StatusTooManyRequests {
			t.Errorf("request past the limit: status = %d, want 429: %s", st, body)
		}
		close(release)
		checkHolders(t, done)
		ep := s.metrics.snapshot().Endpoints["mine"]
		if ep.Shed != 1 {
			t.Errorf("shed = %d, want 1", ep.Shed)
		}
		if ep.QueueWait.Count != slots {
			t.Errorf("queueWait.count = %d, want %d (shed requests never observe it)", ep.QueueWait.Count, slots)
		}
	})
}

// TestSlowClassFilter exercises /debug/slow?class=: traffic on two endpoints
// of different query classes, then the filtered view must contain only the
// requested class while the unfiltered view contains both.
func TestSlowClassFilter(t *testing.T) {
	s := newTestServer(t, Config{SlowTraces: 16})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		if st, body := get(t, ts.URL, fmt.Sprintf("/mine?w=%d&supp=0.02&conf=0.2", i)); st != http.StatusOK {
			t.Fatalf("GET /mine: %d: %s", st, body)
		}
		if st, body := get(t, ts.URL, fmt.Sprintf("/count?w=%d&supp=0.02&conf=0.2", i)); st != http.StatusOK {
			t.Fatalf("GET /count: %d: %s", st, body)
		}
	}

	decode := func(path string) []obs.SlowTrace {
		st, body := get(t, ts.URL, path)
		if st != http.StatusOK {
			t.Fatalf("GET %s: %d: %s", path, st, body)
		}
		var traces []obs.SlowTrace
		if err := json.Unmarshal(body, &traces); err != nil {
			t.Fatalf("GET %s: decoding: %v", path, err)
		}
		return traces
	}

	all := decode("/debug/slow")
	classes := map[string]bool{}
	for _, tr := range all {
		classes[tr.Class] = true
	}
	if !classes["mine"] || !classes["count"] {
		t.Fatalf("unfiltered /debug/slow classes = %v, want both mine and count", classes)
	}

	mineOnly := decode("/debug/slow?class=mine")
	if len(mineOnly) == 0 {
		t.Fatal("/debug/slow?class=mine returned no traces")
	}
	for _, tr := range mineOnly {
		if tr.Class != "mine" {
			t.Errorf("filtered trace has class %q endpoint %q, want class mine", tr.Class, tr.Endpoint)
		}
	}
	if len(mineOnly) >= len(all) {
		t.Errorf("filter removed nothing: %d filtered vs %d total", len(mineOnly), len(all))
	}

	if none := decode("/debug/slow?class=nosuch"); len(none) != 0 {
		t.Errorf("/debug/slow?class=nosuch returned %d traces, want 0", len(none))
	}
}

// TestPprofGating checks that /debug/pprof/ is absent by default, present
// with EnablePprof, and that enabling it logs the exposure warning.
func TestPprofGating(t *testing.T) {
	t.Run("default off", func(t *testing.T) {
		s := newTestServer(t, Config{})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		st, _ := get(t, ts.URL, "/debug/pprof/")
		if st != http.StatusNotFound {
			t.Errorf("GET /debug/pprof/ without -pprof = %d, want 404", st)
		}
	})

	t.Run("opt-in on with warning", func(t *testing.T) {
		var logBuf bytes.Buffer
		s := newTestServer(t, Config{
			EnablePprof: true,
			Logger:      slog.New(slog.NewTextHandler(&logBuf, nil)),
		})
		if !strings.Contains(logBuf.String(), "pprof enabled") {
			t.Errorf("enabling pprof logged no warning: %q", logBuf.String())
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		st, body := get(t, ts.URL, "/debug/pprof/")
		if st != http.StatusOK {
			t.Errorf("GET /debug/pprof/ with -pprof = %d: %s", st, body)
		}
		if !bytes.Contains(body, []byte("goroutine")) {
			t.Errorf("pprof index does not list profiles: %s", body)
		}
	})
}
