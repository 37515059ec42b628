package server

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tara/internal/obs"
	"tara/internal/query"
)

// TestDebugTraceIntegration issues a ?debug=trace mine query and checks the
// returned stage breakdown: the trace honors the inbound X-Request-ID, names
// at least four known stages, and the stage durations sum to no more than the
// latency observed at the endpoint.
func TestDebugTraceIntegration(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const reqID = "trace-test-42"
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/mine?w=0&supp=0.02&conf=0.2&debug=trace", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", reqID)
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Request-ID"); got != reqID {
		t.Errorf("X-Request-ID echoed as %q, want %q", got, reqID)
	}

	var traced tracedBody
	if err := json.Unmarshal(body, &traced); err != nil {
		t.Fatalf("decoding traced body: %v", err)
	}
	if traced.Trace.ID != reqID {
		t.Errorf("trace id %q, want %q", traced.Trace.ID, reqID)
	}
	// The wrapped result must still be the normal mine answer.
	var res query.MineResult
	if err := json.Unmarshal(traced.Result, &res); err != nil {
		t.Fatalf("decoding wrapped result: %v", err)
	}
	if res.Window != 0 || res.Count == 0 {
		t.Errorf("wrapped result window=%d count=%d, want window 0 and rules", res.Window, res.Count)
	}

	known := map[string]bool{}
	for _, st := range obs.Stages() {
		known[st.String()] = true
	}
	var stageSum float64
	for _, st := range traced.Trace.Stages {
		if !known[st.Stage] {
			t.Errorf("unknown stage %q in trace", st.Stage)
		}
		if st.Micros < 0 {
			t.Errorf("stage %s has negative duration %v", st.Stage, st.Micros)
		}
		stageSum += st.Micros
	}
	if len(traced.Trace.Stages) < 4 {
		t.Fatalf("trace has %d stages (%+v), want >= 4", len(traced.Trace.Stages), traced.Trace.Stages)
	}
	if stageSum > traced.Trace.TotalMicros {
		t.Errorf("stage sum %.1fµs exceeds trace total %.1fµs", stageSum, traced.Trace.TotalMicros)
	}
	if clientUS := float64(elapsed) / float64(time.Microsecond); stageSum > clientUS {
		t.Errorf("stage sum %.1fµs exceeds client-observed latency %.1fµs", stageSum, clientUS)
	}
	// The endpoint histogram observed this request end to end, so its sum
	// (whole microseconds) bounds the stage sum too.
	st := s.metrics.endpoints["mine"]
	if got, want := st.latency.Count(), uint64(1); got != want {
		t.Fatalf("endpoint observed %d requests, want %d", got, want)
	}
	if endpointUS := float64(st.latency.SumMicros() + 1); stageSum > endpointUS {
		t.Errorf("stage sum %.1fµs exceeds endpoint-observed latency %.0fµs", stageSum, endpointUS)
	}

	// The same trace must have landed in the stage histograms and slow ring.
	snap := s.metrics.snapshot()
	if len(snap.Stages) < 4 {
		t.Errorf("/metrics stages = %v, want >= 4 populated", snap.Stages)
	}
	slow := s.metrics.slow.Snapshot()
	if len(slow) != 1 || slow[0].ID != reqID {
		t.Fatalf("slow ring = %+v, want the one traced request", slow)
	}

	code, body := get(t, ts.URL, "/debug/slow")
	if code != http.StatusOK {
		t.Fatalf("/debug/slow status %d", code)
	}
	var slowBody []obs.SlowTrace
	if err := json.Unmarshal(body, &slowBody); err != nil {
		t.Fatalf("decoding /debug/slow: %v", err)
	}
	if len(slowBody) != 1 || slowBody[0].ID != reqID || slowBody[0].Endpoint != "mine" {
		t.Fatalf("/debug/slow = %s, want the mine trace", body)
	}
}

// TestUntracedResponseUnchanged checks that without ?debug=trace the answer
// body is the plain result — tracing must be opt-in per request.
func TestUntracedResponseUnchanged(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts.URL, "/mine?w=0&supp=0.02&conf=0.2")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var v map[string]json.RawMessage
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if _, ok := v["trace"]; ok {
		t.Fatalf("untraced response contains a trace envelope: %s", body)
	}
	if _, ok := v["rules"]; !ok {
		t.Fatalf("untraced response is not the plain mine result: %s", body)
	}
}

// Prometheus text-format (version 0.0.4) conformance checking, applied to
// every exported series: metric and label names match the spec's character
// sets, label values use only the legal escapes (\\, \", \n), every sample's
// metric family carries HELP and TYPE metadata, no two sample lines repeat
// the same (name, label set) series, histogram buckets are cumulative and
// close with a +Inf bucket equal to the series _count.

var (
	promMetricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// parsePromLabels parses the inside of a {...} label block, validating label
// names and value escaping. Returns the labels as sorted `name=value` pairs
// (values unescaped) for series identity.
func parsePromLabels(s string) ([]string, error) {
	var out []string
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, fmt.Errorf("no '=' in label segment %q", s)
		}
		name := s[:eq]
		if !promLabelNameRe.MatchString(name) {
			return nil, fmt.Errorf("bad label name %q", name)
		}
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return nil, fmt.Errorf("label %s: value not quoted", name)
		}
		s = s[1:]
		var val strings.Builder
		closed := false
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, fmt.Errorf("label %s: dangling backslash", name)
				}
				switch s[i+1] {
				case '\\', '"':
					val.WriteByte(s[i+1])
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, fmt.Errorf("label %s: illegal escape \\%c", name, s[i+1])
				}
				i++
				continue
			}
			if c == '"' {
				s = s[i+1:]
				closed = true
				break
			}
			if c == '\n' {
				return nil, fmt.Errorf("label %s: raw newline in value", name)
			}
			val.WriteByte(c)
		}
		if !closed {
			return nil, fmt.Errorf("label %s: unterminated value", name)
		}
		out = append(out, name+"="+val.String())
		if len(s) > 0 {
			if s[0] != ',' {
				return nil, fmt.Errorf("expected ',' between labels, got %q", s)
			}
			s = s[1:]
		}
	}
	sort.Strings(out)
	return out, nil
}

// checkPromExposition validates a full exposition body against the rules
// above.
func checkPromExposition(t *testing.T, text string) {
	t.Helper()
	helped := map[string]bool{}
	typed := map[string]string{}
	seen := map[string]int{}         // series identity -> first line
	bucketCum := map[string]uint64{} // histogram key -> last cumulative value
	infSeen := map[string]uint64{}
	counts := map[string]uint64{}

	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			f := strings.Fields(line)
			if len(f) < 4 {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			helped[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			if typed[f[2]] != "" {
				t.Fatalf("line %d: duplicate TYPE for %q", ln+1, f[2])
			}
			typed[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment %q", ln+1, line)
		}
		// Sample line: name[{labels}] value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator: %q", ln+1, line)
		}
		series, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, valStr, err)
		}
		name := series
		var labels []string
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("line %d: unterminated labels: %q", ln+1, line)
			}
			name = series[:i]
			labels, err = parsePromLabels(series[i+1 : len(series)-1])
			if err != nil {
				t.Fatalf("line %d: %v: %q", ln+1, err, line)
			}
		}
		if !promMetricNameRe.MatchString(name) {
			t.Fatalf("line %d: illegal metric name %q", ln+1, name)
		}
		id := name + "{" + strings.Join(labels, ",") + "}"
		if first, dup := seen[id]; dup {
			t.Fatalf("line %d: duplicate series %s (first at line %d)", ln+1, id, first)
		}
		seen[id] = ln + 1
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, suffix); ok && typed[b] == "histogram" {
				base = b
			}
		}
		if !helped[base] || typed[base] == "" {
			t.Fatalf("line %d: series %q lacks HELP/TYPE metadata (base %q)", ln+1, line, base)
		}
		if typed[base] == "histogram" {
			// Key bucket series by their non-le labels so cumulativeness is
			// checked per labeled histogram.
			var le string
			var rest []string
			for _, kv := range labels {
				if v, ok := strings.CutPrefix(kv, "le="); ok {
					le = v
				} else {
					rest = append(rest, kv)
				}
			}
			key := base + "|" + strings.Join(rest, ",")
			switch {
			case strings.HasSuffix(name, "_bucket"):
				if uint64(val) < bucketCum[key] {
					t.Fatalf("line %d: bucket not cumulative (%d < %d): %q", ln+1, uint64(val), bucketCum[key], line)
				}
				bucketCum[key] = uint64(val)
				if le == "+Inf" {
					infSeen[key] = uint64(val)
				}
			case strings.HasSuffix(name, "_count"):
				counts[key] = uint64(val)
			}
		}
	}
	if len(typed) == 0 {
		t.Fatal("no typed series in exposition")
	}
	for key, c := range counts {
		inf, ok := infSeen[key]
		if !ok {
			t.Errorf("histogram %s has no +Inf bucket", key)
		} else if inf != c {
			t.Errorf("histogram %s: +Inf bucket %d != count %d", key, inf, c)
		}
	}
}

// TestPromLabelParser pins the checker's own label grammar: legal escapes
// round-trip, illegal ones are rejected — so a conformance pass over the
// real exposition means the escaping rules were actually exercised.
func TestPromLabelParser(t *testing.T) {
	if got, err := parsePromLabels(`a="x\\y\"z\n",b="w"`); err != nil || strings.Join(got, "|") != "a=x\\y\"z\n|b=w" {
		t.Fatalf("legal labels: got %q, err %v", got, err)
	}
	for _, bad := range []string{`a="x\t"`, `a=x`, `1a="x"`, `a="x`} {
		if _, err := parsePromLabels(bad); err == nil {
			t.Errorf("parsePromLabels(%q) accepted, want error", bad)
		}
	}
}

// TestPrometheusExposition drives traffic and validates the
// /metrics?format=prometheus output with the minimal exposition checker.
func TestPrometheusExposition(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 5; i++ {
		if code, body := get(t, ts.URL, "/mine?w=0&supp=0.02&conf=0.2"); code != http.StatusOK {
			t.Fatalf("status %d: %s", code, body)
		}
	}
	get(t, ts.URL, "/mine?w=999&supp=0.02&conf=0.2") // one error

	resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q, want text/plain", ct)
	}
	text := string(body)
	checkPromExposition(t, text)

	for _, want := range []string{
		`tarad_requests_total{endpoint="mine"} 6`,
		`tarad_request_errors_total{endpoint="mine"} 1`,
		`tarad_request_duration_seconds_count{endpoint="mine"} 6`,
		`tarad_stage_duration_seconds_bucket{stage="decode",`,
		"tarad_query_cache_hits_total",
		"tarad_response_cache_bytes ",
		"tarad_response_cache_capacity_bytes 1.6777216e+07",
		"tarad_uptime_seconds",
		"tarad_kb_load_millis",
		`tarad_kb_load_info{mode="` + s.fw.LoadMode() + `"} 1`,
		`tarad_request_shed_total{endpoint="mine"} 0`,
		`tarad_request_timeouts_total{endpoint="mine"} 0`,
		`tarad_in_flight_requests{endpoint="mine"} 0`,
		// Queue wait is observed only on admission inside the handler; byte-cache
		// hits answer upstream of the limiter, so only the cold miss and the
		// w=999 error request pass through admission.
		`tarad_queue_wait_seconds_count{endpoint="mine"} 2`,
		"tarad_go_heap_live_bytes",
		"tarad_go_heap_goal_bytes",
		"tarad_go_gc_cycles_total",
		`tarad_go_gc_pause_seconds_bucket{le="+Inf"}`,
		`tarad_go_sched_latency_seconds_count`,
		"tarad_kb_archive_bytes",
		"tarad_kb_archive_mapped",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestMetricsConcurrentSnapshot hammers one endpoint from 8 goroutines while
// reading snapshots in a loop: request counts must grow monotonically and
// every histogram view must stay internally consistent. Run under -race this
// is the lock-free metrics path's correctness check. A fixed admission cap
// keeps the cold-start limit from shedding the first concurrent misses.
func TestMetricsConcurrentSnapshot(t *testing.T) {
	const workers = 8
	const perWorker = 50
	s := newTestServer(t, Config{MaxInFlight: workers, MinLimit: workers})
	h := s.Handler()

	var wg sync.WaitGroup
	var stop atomic.Bool
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				rec := httptest.NewRecorder()
				req := httptest.NewRequest(http.MethodGet, "/count?w=0&supp=0.02&conf=0.2", nil)
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("status %d: %s", rec.Code, rec.Body)
					return
				}
			}
		}()
	}

	snapErrs := make(chan error, 1)
	go func() {
		defer close(snapErrs)
		var lastReq, lastCount uint64
		for !stop.Load() {
			snap := s.metrics.snapshot()
			ep := snap.Endpoints["count"]
			if ep.Requests < lastReq {
				snapErrs <- fmt.Errorf("requests went backwards: %d -> %d", lastReq, ep.Requests)
				return
			}
			if ep.Latency.Count < lastCount {
				snapErrs <- fmt.Errorf("latency count went backwards: %d -> %d", lastCount, ep.Latency.Count)
				return
			}
			if ep.Latency.Count > ep.Requests {
				snapErrs <- fmt.Errorf("latency count %d > requests %d", ep.Latency.Count, ep.Requests)
				return
			}
			if l := ep.Latency; l.P50Micros > l.P95Micros || l.P95Micros > l.P99Micros {
				snapErrs <- fmt.Errorf("quantiles out of order: %+v", l)
				return
			}
			// The raw bucket view must never show fewer observations in the
			// buckets than in the count (the snapshot read order guarantee).
			hs := s.metrics.endpoints["count"].latency.Snapshot()
			var bucketTotal uint64
			for _, b := range hs.Buckets {
				bucketTotal += b
			}
			if bucketTotal < hs.Count {
				snapErrs <- fmt.Errorf("bucket total %d < count %d", bucketTotal, hs.Count)
				return
			}
			lastReq, lastCount = ep.Requests, ep.Latency.Count
		}
	}()

	wg.Wait()
	stop.Store(true)
	if err, ok := <-snapErrs; ok && err != nil {
		t.Fatal(err)
	}

	snap := s.metrics.snapshot()
	ep := snap.Endpoints["count"]
	if want := uint64(workers * perWorker); ep.Requests != want || ep.Latency.Count != want {
		t.Fatalf("final requests=%d latencyCount=%d, want %d", ep.Requests, ep.Latency.Count, want)
	}
}

// TestExpvarTracksNewestRegistry pins the publishOnce fix: expvar's "tarad"
// var must reflect the most recently constructed Server, not the first one
// the process ever built.
func TestExpvarTracksNewestRegistry(t *testing.T) {
	a := newTestServer(t, Config{})
	ha := a.Handler()
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		ha.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/count?w=0&supp=0.02&conf=0.2", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("server A status %d", rec.Code)
		}
	}

	b := newTestServer(t, Config{}) // New publishes, making B current
	hb := b.Handler()
	rec := httptest.NewRecorder()
	hb.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/count?w=0&supp=0.02&conf=0.2", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("server B status %d", rec.Code)
	}

	v := expvar.Get("tarad")
	if v == nil {
		t.Fatal("expvar tarad not published")
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal([]byte(v.String()), &snap); err != nil {
		t.Fatalf("decoding expvar tarad: %v", err)
	}
	if got := snap.Endpoints["count"].Requests; got != 1 {
		t.Fatalf("expvar count requests = %d, want 1 (server B); stale registry?", got)
	}
}
