package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"sync"
	"testing"
	"time"

	"tara/internal/gen"
	"tara/internal/mining"
	"tara/internal/query"
	"tara/internal/tara"
)

// The knowledge base is read-only for the daemon, so all tests share one
// build (construction dominates test time under -race).
var (
	fwOnce sync.Once
	fwVal  *tara.Framework
	fwErr  error
)

func testFramework(t *testing.T) *tara.Framework {
	t.Helper()
	fwOnce.Do(func() {
		db, err := gen.Retail(gen.RetailParams{Transactions: 600, NumItems: 80, AvgLen: 8, Seed: 7})
		if err != nil {
			fwErr = err
			return
		}
		fwVal, fwErr = tara.Build(db, 0, 4, tara.Config{
			GenMinSupport: 0.01,
			GenMinConf:    0.1,
			MaxItemsetLen: 3,
			Miner:         mining.Eclat{},
			ContentIndex:  true,
			Parallelism:   2,
		})
		if fwErr != nil || os.Getenv("TARA_SERVER_LOADMODE") != "mmap" {
			return
		}
		// CI runs the whole server suite a second time against a mapped
		// knowledge base: save the built framework in the mapped container
		// format and reopen it via mmap, so every endpoint test exercises
		// the lazily materialized serving path. The temp file must outlive
		// the process-shared fixture, so it is not tied to a testing.T.
		f, err := os.CreateTemp("", "tara-server-*.kb")
		if err != nil {
			fwErr = err
			return
		}
		defer os.Remove(f.Name())
		if fwErr = fwVal.SaveMapped(f); fwErr != nil {
			f.Close()
			return
		}
		if fwErr = f.Close(); fwErr != nil {
			return
		}
		fwVal, fwErr = tara.Open(f.Name())
	})
	if fwErr != nil {
		t.Fatalf("building test framework: %v", fwErr)
	}
	return fwVal
}

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// fixedCap is a MinLimit that pins the admission limit at the default
// MaxInFlight, for tests whose concurrent clients must all be admitted: the
// controller's cold-start limit is 2.
const fixedCap = 256

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Framework == nil {
		cfg.Framework = testFramework(t)
	}
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// anItemName returns the name of an item that participates in at least one
// qualifying rule, so /content queries have a non-trivial answer.
func anItemName(t *testing.T, fw *tara.Framework) string {
	t.Helper()
	views, err := fw.Mine(0, 0.01, 0.1)
	if err != nil || len(views) == 0 {
		t.Fatalf("Mine for item name: %d views, err=%v", len(views), err)
	}
	return fw.ItemDict().Name(views[0].Rule.Ant[0])
}

func get(t *testing.T, base, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp.StatusCode, body
}

// TestEndpointsServeConcurrently drives every query endpoint with 10
// concurrent clients each (all endpoints in flight at once) and checks each
// answer is valid JSON with HTTP 200. Run under -race this doubles as the
// daemon's data-race check.
func TestEndpointsServeConcurrently(t *testing.T) {
	fw := testFramework(t)
	s := newTestServer(t, Config{MinLimit: fixedCap})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	item := url.QueryEscape(anItemName(t, fw))
	paths := []string{
		"/mine?w=0&supp=0.02&conf=0.2",
		"/count?w=0&supp=0.02&conf=0.2",
		"/trajectory?w=0&supp=0.02&conf=0.2&in=0,1,2,3",
		"/diff?w=0,1,2,3&a=0.02,0.2&b=0.05,0.3",
		"/recommend?w=1&supp=0.02&conf=0.2",
		"/rollup?from=0&to=3&supp=0.02&conf=0.2",
		"/drill?rule=0&from=0&to=3",
		"/content?w=0&supp=0.02&conf=0.2&items=" + item,
		"/rank?from=0&to=3&supp=0.02&conf=0.2&k=5",
		"/periodic?from=0&to=3&supp=0.02&conf=0.2&period=2&k=5",
		"/plot?w=0",
	}

	const clients = 10
	const iters = 2
	var wg sync.WaitGroup
	errs := make(chan error, len(paths)*clients)
	for _, p := range paths {
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					resp, err := http.Get(ts.URL + p)
					if err != nil {
						errs <- fmt.Errorf("GET %s: %v", p, err)
						return
					}
					body, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						errs <- fmt.Errorf("GET %s: read: %v", p, err)
						return
					}
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("GET %s: status %d: %s", p, resp.StatusCode, body)
						return
					}
					var v map[string]any
					if err := json.Unmarshal(body, &v); err != nil {
						errs <- fmt.Errorf("GET %s: bad JSON: %v", p, err)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMineAnswerMatchesFramework cross-checks the HTTP answer against a
// direct framework call.
func TestMineAnswerMatchesFramework(t *testing.T) {
	fw := testFramework(t)
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	views, err := fw.Mine(1, 0.02, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	code, body := get(t, ts.URL, "/mine?w=1&supp=0.02&conf=0.2")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var res query.MineResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if res.Window != 1 || res.Count != len(views) || len(res.Rules) != len(views) {
		t.Fatalf("got window=%d count=%d rules=%d, want window=1 count=%d", res.Window, res.Count, len(res.Rules), len(views))
	}
	for _, r := range res.Rules {
		if r.Support < 0.02 || r.Confidence < 0.2 {
			t.Errorf("rule #%d (%.5f, %.3f) below thresholds", r.ID, r.Support, r.Confidence)
		}
	}
}

func TestBadRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		path string
		want int
	}{
		{"/mine", http.StatusBadRequest},                          // missing params
		{"/mine?w=0&supp=abc&conf=0.2", http.StatusBadRequest},    // unparseable
		{"/mine?w=0&supp=NaN&conf=0.2", http.StatusBadRequest},    // non-finite
		{"/mine?w=0&supp=2&conf=0.2", http.StatusBadRequest},      // out of [0,1]
		{"/mine?w=99&supp=0.02&conf=0.2", http.StatusBadRequest},  // window out of range
		{"/drill?rule=999999&from=0&to=3", http.StatusBadRequest}, // unknown rule
		{"/rank?from=0&to=3&supp=0.02&conf=0.2&by=nope", http.StatusBadRequest},
		{"/nosuch", http.StatusNotFound},
	}
	for _, c := range cases {
		code, body := get(t, ts.URL, c.path)
		if code != c.want {
			t.Errorf("GET %s: status %d, want %d (%s)", c.path, code, c.want, body)
		}
		if c.want == http.StatusBadRequest {
			var e errorBody
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Errorf("GET %s: error body %q not structured", c.path, body)
			}
		}
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/mine?w=0&supp=0.02&conf=0.2", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /mine: status %d, want 405", resp.StatusCode)
	}
}

// TestInFlightLimiterSheds holds MaxInFlight slots busy and checks that
// further requests are shed with 429 instead of queueing.
func TestInFlightLimiterSheds(t *testing.T) {
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	s := newTestServer(t, Config{MaxInFlight: 2})
	s.delay = func(string) {
		entered <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const path = "/mine?w=0&supp=0.02&conf=0.2"
	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				codes <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatal("slot holders did not enter")
		}
	}
	// Both slots are held: these must all shed immediately.
	for i := 0; i < 4; i++ {
		code, body := get(t, ts.URL, path)
		if code != http.StatusTooManyRequests {
			t.Errorf("overload request %d: status %d, want 429 (%s)", i, code, body)
		}
	}
	close(release)
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("slot holder %d: status %d, want 200", i, code)
		}
	}
	snap := s.metrics.snapshot()
	if snap.Shed < 4 {
		t.Errorf("shed counter = %d, want >= 4", snap.Shed)
	}
}

// TestRequestTimeout checks that a slow query answers 503 within the
// configured bound rather than hanging the client.
func TestRequestTimeout(t *testing.T) {
	s := newTestServer(t, Config{RequestTimeout: 50 * time.Millisecond})
	s.delay = func(string) { time.Sleep(400 * time.Millisecond) }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	start := time.Now()
	code, _ := get(t, ts.URL, "/mine?w=0&supp=0.02&conf=0.2")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", code)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("timeout answer took %v", d)
	}
	snap := s.metrics.snapshot()
	ep := snap.Endpoints["mine"]
	if ep.Requests != 1 || ep.Errors != 1 {
		t.Errorf("timed-out request not counted: %+v", ep)
	}
}

// TestMetrics drives traffic and checks the /metrics answer: per-endpoint
// request and error counters, and ordered latency quantiles.
func TestMetrics(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const good = 20
	for i := 0; i < good; i++ {
		if code, body := get(t, ts.URL, "/mine?w=0&supp=0.02&conf=0.2"); code != http.StatusOK {
			t.Fatalf("status %d: %s", code, body)
		}
	}
	for i := 0; i < 2; i++ {
		get(t, ts.URL, "/mine?w=999&supp=0.02&conf=0.2")
	}

	code, body := get(t, ts.URL, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	ep, ok := snap.Endpoints["mine"]
	if !ok {
		t.Fatalf("no mine endpoint in %s", body)
	}
	if ep.Requests != good+2 || ep.Errors != 2 {
		t.Errorf("mine: requests=%d errors=%d, want %d and 2", ep.Requests, ep.Errors, good+2)
	}
	l := ep.Latency
	if l.Count != good+2 {
		t.Errorf("latency count = %d, want %d", l.Count, good+2)
	}
	if l.P50Micros > l.P95Micros || l.P95Micros > l.P99Micros {
		t.Errorf("quantiles out of order: p50=%d p95=%d p99=%d", l.P50Micros, l.P95Micros, l.P99Micros)
	}
	if l.Count > 0 && l.MeanMicros <= 0 {
		t.Errorf("mean %v not positive with %d observations", l.MeanMicros, l.Count)
	}
	if idle, ok := snap.Endpoints["rollup"]; !ok || idle.Requests != 0 {
		t.Errorf("idle endpoint rollup: %+v, ok=%v", idle, ok)
	}
	// Config{} left KBLoadMode empty, so New fell back to the framework's
	// own load mode ("heap" built in-process, "mmap" when the suite runs
	// against a mapped knowledge base).
	if snap.KBLoadMode != s.fw.LoadMode() {
		t.Errorf("kbLoadMode = %q, want %q", snap.KBLoadMode, s.fw.LoadMode())
	}
	if snap.KBLoadMillis < 0 {
		t.Errorf("kbLoadMillis = %d, want >= 0", snap.KBLoadMillis)
	}
}

// TestMetricsQueryCache drives repeated identical queries and checks that
// /metrics reports the framework's query cache doing its job: nonzero hits
// and a nonzero per-class hit ratio. The framework (and so the cache) is
// shared across tests, so assertions are lower bounds, not exact counts.
func TestMetricsQueryCache(t *testing.T) {
	fw := testFramework(t)
	// The byte cache would absorb the warm repeats before they reach the
	// framework; disable it so this test keeps exercising the query cache.
	s := newTestServer(t, Config{ByteCacheBytes: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var want query.CountResult
	for i := 0; i < 20; i++ {
		code, body := get(t, ts.URL, "/count?w=0&supp=0.02&conf=0.2")
		if code != http.StatusOK {
			t.Fatalf("/count status %d: %s", code, body)
		}
		var res query.CountResult
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatalf("decoding /count: %v", err)
		}
		if i == 0 {
			want = res
			views, err := fw.Mine(0, 0.02, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != len(views) {
				t.Fatalf("/count = %d, framework mines %d", res.Count, len(views))
			}
		} else if res != want {
			t.Fatalf("cached /count diverged: %+v vs %+v", res, want)
		}
		if code, body := get(t, ts.URL, "/mine?w=0&supp=0.02&conf=0.2"); code != http.StatusOK {
			t.Fatalf("/mine status %d: %s", code, body)
		}
	}

	code, body := get(t, ts.URL, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	qc := snap.QueryCache
	if !qc.Enabled {
		t.Fatalf("query cache not enabled in /metrics: %s", body)
	}
	if qc.Hits == 0 || qc.HitRatio <= 0 {
		t.Fatalf("query cache never hit: %+v", qc)
	}
	for _, class := range []string{"count", "mine"} {
		if cl := qc.Classes[class]; cl.Hits == 0 || cl.HitRatio <= 0 {
			t.Fatalf("%s class never hit: %+v", class, qc)
		}
	}
	if qc.Entries == 0 || qc.Entries > qc.Capacity {
		t.Fatalf("implausible cache occupancy: %+v", qc)
	}
}

// TestGracefulDrain cancels the serve context (the SIGTERM path) while a
// request is in flight and checks the request still completes with 200.
func TestGracefulDrain(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s := newTestServer(t, Config{})
	s.delay = func(string) {
		entered <- struct{}{}
		<-release
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln, 10*time.Second) }()

	base := "http://" + ln.Addr().String()
	reqDone := make(chan int, 1)
	go func() {
		resp, err := http.Get(base + "/mine?w=0&supp=0.02&conf=0.2")
		if err != nil {
			reqDone <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		reqDone <- resp.StatusCode
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("request never entered the handler")
	}

	cancel() // the same path SIGTERM takes via signal.NotifyContext
	// Shutdown is now in progress; the in-flight request must survive it.
	time.Sleep(50 * time.Millisecond)
	close(release)

	select {
	case code := <-reqDone:
		if code != http.StatusOK {
			t.Errorf("in-flight request: status %d, want 200", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never finished")
	}
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("Serve returned %v, want nil after drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("server still accepting connections after drain")
	}
}

func TestNewRequiresFramework(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without a framework succeeded")
	}
}

// BenchmarkServerMineQPS measures end-to-end /mine throughput over real HTTP
// connections with parallel clients.
func BenchmarkServerMineQPS(b *testing.B) {
	db, err := gen.Retail(gen.RetailParams{Transactions: 600, NumItems: 80, AvgLen: 8, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	fw, err := tara.Build(db, 0, 4, tara.Config{
		GenMinSupport: 0.01, GenMinConf: 0.1, MaxItemsetLen: 3,
		Miner: mining.Eclat{}, ContentIndex: true, Parallelism: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{Framework: fw, Logger: quietLogger()})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	url := ts.URL + "/mine?w=0&supp=0.02&conf=0.2"

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := http.Get(url)
			if err != nil {
				b.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
				return
			}
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
}
