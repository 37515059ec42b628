package server

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tara/internal/query"
)

// identityClient never asks for (or transparently decodes) any content
// coding, so the bytes it reads are exactly the identity representation.
var identityClient = &http.Client{Transport: &http.Transport{DisableCompression: true}}

// getCoded performs a GET with an explicit Accept-Encoding and transparent
// decompression disabled, returning the raw (possibly compressed) body and
// headers.
func getCoded(t *testing.T, base, path, acceptEncoding string) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if acceptEncoding != "" {
		req.Header.Set("Accept-Encoding", acceptEncoding)
	}
	resp, err := identityClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp.StatusCode, body, resp.Header
}

func gunzip(t *testing.T, b []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("gzip reader: %v", err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gunzip: %v", err)
	}
	if err := zr.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGzipIdentityDifferential proves the gzip variant path is invisible to
// clients: for every query class, a gzip-negotiated response decompresses to
// bytes identical to the identity response, ETags differ per coding, and
// cacheable compressed responses carry Vary: Accept-Encoding. Concurrent
// clients hammer the mixed-coding warm path so that under -race this doubles
// as the variant derivation's data-race check.
func TestGzipIdentityDifferential(t *testing.T) {
	fw := testFramework(t)
	s := newTestServer(t, Config{GzipMinBytes: 1, MinLimit: fixedCap}) // compress every cacheable body
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	item := url.QueryEscape(anItemName(t, fw))
	paths := []string{
		// Byte-cacheable classes (these grow gzip variants).
		"/mine?w=0&supp=0.02&conf=0.2",
		"/mine?w=1&supp=0.02&conf=0.2&lift=1.1",
		"/mine?w=0&supp=0.02&conf=0.2&limit=5",
		"/mine?w=0&supp=0.02&conf=0.2&limit=5&offset=5",
		"/count?w=0&supp=0.02&conf=0.2",
		"/recommend?w=1&supp=0.02&conf=0.2",
		"/recommend?w=1&supp=0.02&conf=0.2&lift=1.1",
		// Non-cacheable classes: served identity-coded either way, but the
		// differential must still hold.
		"/trajectory?w=0&supp=0.02&conf=0.2&in=0,1,2,3",
		"/trajectory?w=0&supp=0.02&conf=0.2&in=0,1,2,3&limit=3",
		"/diff?w=0,1,2,3&a=0.02,0.2&b=0.05,0.3",
		"/rollup?from=0&to=3&supp=0.02&conf=0.2&limit=4&offset=2",
		"/drill?rule=0&from=0&to=3",
		"/content?w=0&supp=0.02&conf=0.2&items=" + item,
		"/rank?from=0&to=3&supp=0.02&conf=0.2&k=5",
		"/periodic?from=0&to=3&supp=0.02&conf=0.2&period=2&k=5",
		"/plot?w=0",
	}

	// Identity reference bodies.
	want := make(map[string][]byte, len(paths))
	for _, p := range paths {
		code, body, _ := getCoded(t, ts.URL, p, "")
		if code != http.StatusOK {
			t.Fatalf("GET %s (identity): status %d", p, code)
		}
		want[p] = body
	}

	check := func(p, accept string) error {
		code, body, hdr := getCoded(t, ts.URL, p, accept)
		if code != http.StatusOK {
			return fmt.Errorf("GET %s (%q): status %d", p, accept, code)
		}
		if hdr.Get("Content-Encoding") == "gzip" {
			if !strings.Contains(hdr.Get("Vary"), "Accept-Encoding") {
				return fmt.Errorf("GET %s: gzip response without Vary: Accept-Encoding", p)
			}
			if tag := hdr.Get("ETag"); !strings.HasSuffix(tag, `-gz"`) {
				return fmt.Errorf("GET %s: gzip response with non-variant ETag %q", p, tag)
			}
			zr, err := gzip.NewReader(bytes.NewReader(body))
			if err != nil {
				return fmt.Errorf("GET %s: gzip reader: %v", p, err)
			}
			body, err = io.ReadAll(zr)
			if err != nil {
				return fmt.Errorf("GET %s: gunzip: %v", p, err)
			}
		}
		if !bytes.Equal(body, want[p]) {
			return fmt.Errorf("GET %s (%q): decoded body diverges from identity:\n got %s\nwant %s", p, accept, body, want[p])
		}
		return nil
	}

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			accepts := []string{"gzip", "", "x-gzip", "gzip;q=0.5", "identity, gzip"}
			for i := 0; i < 3; i++ {
				for j, p := range paths {
					if err := check(p, accepts[(seed+i+j)%len(accepts)]); err != nil {
						errs <- err
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The cacheable paths must actually have been served compressed at least
	// once (the differential would pass vacuously otherwise).
	_, _, hdr := getCoded(t, ts.URL, paths[0], "gzip")
	if hdr.Get("Content-Encoding") != "gzip" {
		t.Fatalf("warm cacheable response not gzip-coded: headers %v", hdr)
	}

	// A gzip-refusing client must get identity even though a variant exists.
	_, _, hdr = getCoded(t, ts.URL, paths[0], "gzip;q=0")
	if hdr.Get("Content-Encoding") == "gzip" {
		t.Fatal("gzip served despite q=0 refusal")
	}
}

// TestGzipConditionalAndDisabled covers the per-encoding conditional
// protocol — each coding revalidates only against its own tag — and the
// GzipMinBytes switch (negative disables variants and the Vary header;
// bodies below the threshold stay identity).
func TestGzipConditionalAndDisabled(t *testing.T) {
	s := newTestServer(t, Config{GzipMinBytes: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const path = "/mine?w=0&supp=0.02&conf=0.2"
	_, _, idHdr := getCoded(t, ts.URL, path, "")
	_, _, gzHdr := getCoded(t, ts.URL, path, "gzip")
	idTag, gzTag := idHdr.Get("ETag"), gzHdr.Get("ETag")
	if idTag == "" || gzTag == "" || idTag == gzTag {
		t.Fatalf("per-encoding tags: identity %q, gzip %q", idTag, gzTag)
	}
	if gzTag != gzipTag(idTag) {
		t.Fatalf("gzip tag %q is not the -gz twin of %q", gzTag, idTag)
	}

	// Matching coding + matching tag → 304; the other coding's tag → 200.
	req := func(accept, inm string) int {
		r, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if accept != "" {
			r.Header.Set("Accept-Encoding", accept)
		}
		r.Header.Set("If-None-Match", inm)
		resp, err := identityClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := req("gzip", gzTag); code != http.StatusNotModified {
		t.Fatalf("gzip + gzip tag: status %d, want 304", code)
	}
	if code := req("", idTag); code != http.StatusNotModified {
		t.Fatalf("identity + identity tag: status %d, want 304", code)
	}
	if code := req("gzip", idTag); code != http.StatusOK {
		t.Fatalf("gzip + identity tag: status %d, want 200", code)
	}
	if code := req("", gzTag); code != http.StatusOK {
		t.Fatalf("identity + gzip tag: status %d, want 200", code)
	}
	// A proxy-weakened variant tag still revalidates (RFC 9110 weak compare).
	if code := req("gzip", "W/"+gzTag); code != http.StatusNotModified {
		t.Fatalf("gzip + weak gzip tag: status %d, want 304", code)
	}

	// Gzip disabled: no variants, no Vary, identity bytes for gzip askers.
	off := newTestServer(t, Config{GzipMinBytes: -1})
	tsOff := httptest.NewServer(off.Handler())
	defer tsOff.Close()
	_, _, hdr := getCoded(t, tsOff.URL, path, "gzip")
	if hdr.Get("Content-Encoding") == "gzip" || hdr.Get("Vary") != "" {
		t.Fatalf("gzip-disabled server negotiated a coding: %v", hdr)
	}

	// Threshold: with the default 1KB floor, tiny bodies (/count) stay
	// identity even with gzip on.
	def := newTestServer(t, Config{})
	tsDef := httptest.NewServer(def.Handler())
	defer tsDef.Close()
	_, _, hdr = getCoded(t, tsDef.URL, "/count?w=0&supp=0.02&conf=0.2", "gzip")
	if hdr.Get("Content-Encoding") == "gzip" {
		t.Fatal("sub-threshold body gzip-coded")
	}
}

// TestSingleflightColdMiss shows N concurrent cold misses on one canonical
// key perform exactly one materialize+encode: the leader is parked inside
// the encode seam while the rest of the herd arrives, and on release every
// request answers 200 with identical bodies off that single encode.
func TestSingleflightColdMiss(t *testing.T) {
	s := newTestServer(t, Config{MinLimit: fixedCap})
	release := make(chan struct{})
	var hookCalls atomic.Int32
	s.encodeHook = func() {
		hookCalls.Add(1)
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 8
	const path = "/mine?w=2&supp=0.02&conf=0.2"
	missesBefore := s.bcache.stats().Misses

	type reply struct {
		code int
		body []byte
	}
	replies := make(chan reply, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Error(err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			replies <- reply{resp.StatusCode, body}
		}()
	}

	// Release the parked leader only once the whole herd has probed the
	// cache (every probe is a counted miss on this cold key).
	deadline := time.Now().Add(10 * time.Second)
	for s.bcache.stats().Misses < missesBefore+n {
		if time.Now().After(deadline) {
			t.Fatalf("herd never arrived: misses %d, want %d", s.bcache.stats().Misses, missesBefore+n)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // probes → flight joins
	close(release)
	wg.Wait()
	close(replies)

	var first []byte
	for r := range replies {
		if r.code != http.StatusOK {
			t.Fatalf("herd member got status %d: %s", r.code, r.body)
		}
		if first == nil {
			first = r.body
		} else if !bytes.Equal(first, r.body) {
			t.Fatalf("herd bodies diverge:\n%s\nvs\n%s", first, r.body)
		}
	}
	if got := s.encodes.Load(); got != 1 {
		t.Fatalf("herd of %d performed %d encodes, want exactly 1", n, got)
	}
	if st := s.bcache.stats(); st.Coalesced == 0 {
		t.Fatalf("no request coalesced onto the leader's encode: %+v", st)
	}
}

// TestMinePaginationHTTP covers limit/offset end to end on /mine: envelope
// bookkeeping (total/offset/count), the served rows being the right slice of
// the full listing, independent cache keys and ETags per page, and 304
// revalidation for a page.
func TestMinePaginationHTTP(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const base = "/mine?w=0&supp=0.02&conf=0.2"
	var full query.MineResult
	code, body := get(t, ts.URL, base)
	if code != http.StatusOK {
		t.Fatalf("full listing: status %d", code)
	}
	if err := json.Unmarshal(body, &full); err != nil {
		t.Fatal(err)
	}
	if full.Total != full.Count || full.Offset != 0 || len(full.Rules) != full.Count {
		t.Fatalf("unpaginated envelope inconsistent: total=%d offset=%d count=%d rules=%d",
			full.Total, full.Offset, full.Count, len(full.Rules))
	}
	if full.Total < 4 {
		t.Fatalf("need >= 4 rules to exercise pagination, have %d", full.Total)
	}

	limit, offset := 2, 1
	var page query.MineResult
	code, body = get(t, ts.URL, fmt.Sprintf("%s&limit=%d&offset=%d", base, limit, offset))
	if code != http.StatusOK {
		t.Fatalf("page: status %d", code)
	}
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	if page.Total != full.Total || page.Offset != offset || page.Count != limit || len(page.Rules) != limit {
		t.Fatalf("page envelope: total=%d offset=%d count=%d rules=%d, want total=%d offset=%d count=%d",
			page.Total, page.Offset, page.Count, len(page.Rules), full.Total, offset, limit)
	}
	for i, r := range page.Rules {
		a, _ := json.Marshal(r)
		b, _ := json.Marshal(full.Rules[offset+i])
		if !bytes.Equal(a, b) {
			t.Fatalf("page row %d diverges from full listing row %d:\n%s\nvs\n%s", i, offset+i, a, b)
		}
	}

	// An offset past the end yields an empty page with intact bookkeeping.
	var empty query.MineResult
	_, body = get(t, ts.URL, fmt.Sprintf("%s&offset=%d", base, full.Total+10))
	if err := json.Unmarshal(body, &empty); err != nil {
		t.Fatal(err)
	}
	if empty.Total != full.Total || empty.Count != 0 || len(empty.Rules) != 0 {
		t.Fatalf("past-the-end page: total=%d count=%d rules=%d", empty.Total, empty.Count, len(empty.Rules))
	}

	// Pages cache independently under distinct ETags, and revalidate.
	_, _, h0 := getWithHeaders(t, ts.URL, base, nil)
	_, _, h1 := getWithHeaders(t, ts.URL, base+"&limit=2&offset=1", nil)
	_, _, h2 := getWithHeaders(t, ts.URL, base+"&limit=2&offset=3", nil)
	t0, t1, t2 := h0.Get("ETag"), h1.Get("ETag"), h2.Get("ETag")
	if t0 == "" || t1 == "" || t2 == "" || t0 == t1 || t1 == t2 || t0 == t2 {
		t.Fatalf("page ETags not distinct: %q %q %q", t0, t1, t2)
	}
	code, b304, _ := getWithHeaders(t, ts.URL, base+"&limit=2&offset=1", map[string]string{"If-None-Match": t1})
	if code != http.StatusNotModified || len(b304) != 0 {
		t.Fatalf("page revalidation: status %d, %d body bytes, want 304 empty", code, len(b304))
	}

	// limit=0 with an offset means "from offset to the end".
	var tail query.MineResult
	_, body = get(t, ts.URL, base+"&offset=2")
	if err := json.Unmarshal(body, &tail); err != nil {
		t.Fatal(err)
	}
	if tail.Count != full.Total-2 || tail.Offset != 2 {
		t.Fatalf("offset-only page: count=%d offset=%d, want %d/2", tail.Count, tail.Offset, full.Total-2)
	}
}

// TestPaginationValidation: negative, non-integer and int32-overflowing
// limit/offset values answer 400 with the typed error body, mirroring the
// NaN/Inf threshold validation.
func TestPaginationValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bad := []string{
		"/mine?w=0&supp=0.02&conf=0.2&limit=-1",
		"/mine?w=0&supp=0.02&conf=0.2&offset=-5",
		"/mine?w=0&supp=0.02&conf=0.2&limit=abc",
		"/mine?w=0&supp=0.02&conf=0.2&limit=1.5",
		"/mine?w=0&supp=0.02&conf=0.2&limit=2147483648",  // int32 overflow
		"/mine?w=0&supp=0.02&conf=0.2&offset=9999999999", // int64-range overflow
		"/content?w=0&supp=0.02&conf=0.2&items=x&offset=-1",
		"/trajectory?w=0&supp=0.02&conf=0.2&in=0,1&limit=-2",
		"/rollup?from=0&to=3&supp=0.02&conf=0.2&limit=nan",
	}
	for _, p := range bad {
		code, body := get(t, ts.URL, p)
		if code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", p, code)
			continue
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("GET %s: malformed error body %q (%v)", p, body, err)
		}
	}

	// Valid edge values pass.
	for _, p := range []string{
		"/mine?w=0&supp=0.02&conf=0.2&limit=0&offset=0",
		"/mine?w=0&supp=0.02&conf=0.2&limit=2147483647",
	} {
		if code, body := get(t, ts.URL, p); code != http.StatusOK {
			t.Errorf("GET %s: status %d, body %s", p, code, body)
		}
	}
}

// failingWriter is a ResponseWriter whose wire is broken: every body write
// errors. Status and headers still land, mirroring a peer that vanished
// after the response line.
type failingWriter struct {
	hdr    http.Header
	status int
}

func (f *failingWriter) Header() http.Header {
	if f.hdr == nil {
		f.hdr = http.Header{}
	}
	return f.hdr
}
func (f *failingWriter) WriteHeader(code int) { f.status = code }
func (f *failingWriter) Write([]byte) (int, error) {
	return 0, fmt.Errorf("broken pipe (test)")
}

// TestWriteFailureCounter: a failed body write is counted per endpoint and
// surfaced on /metrics and the Prometheus exposition instead of vanishing.
func TestWriteFailureCounter(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Warm the cache so the broken request takes the fast path, whose write
	// goes straight to the (failing) wire.
	const path = "/mine?w=0&supp=0.02&conf=0.2"
	if code, _ := get(t, ts.URL, path); code != http.StatusOK {
		t.Fatal("warming failed")
	}

	req := httptest.NewRequest(http.MethodGet, path, nil)
	fw := &failingWriter{}
	s.Handler().ServeHTTP(fw, req)
	if fw.status != http.StatusOK {
		t.Fatalf("broken-wire request: status %d", fw.status)
	}

	code, body := get(t, ts.URL, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.Endpoints["mine"].WriteFailures; got != 1 {
		t.Fatalf("mine writeFailures = %d, want 1 (snapshot: %+v)", got, snap.Endpoints["mine"])
	}

	code, prom := get(t, ts.URL, "/metrics?format=prometheus")
	if code != http.StatusOK {
		t.Fatalf("prometheus exposition status %d", code)
	}
	if !strings.Contains(string(prom), `tarad_response_write_failures_total{endpoint="mine"} 1`) {
		t.Fatalf("prometheus exposition missing write-failure series:\n%s", prom)
	}
	if !strings.Contains(string(prom), "tarad_response_cache_coalesced_total") {
		t.Fatal("prometheus exposition missing coalesced counter")
	}
}

// TestPaginatedEnvelopes checks trajectory and rollup answers carry the same
// total/offset/count bookkeeping as mine.
func TestPaginatedEnvelopes(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var full query.TrajectoryResult
	_, body := get(t, ts.URL, "/trajectory?w=0&supp=0.02&conf=0.2&in=0,1,2,3")
	if err := json.Unmarshal(body, &full); err != nil {
		t.Fatal(err)
	}
	if full.Total < 2 {
		t.Skipf("need >= 2 trajectories, have %d", full.Total)
	}
	var page query.TrajectoryResult
	_, body = get(t, ts.URL, "/trajectory?w=0&supp=0.02&conf=0.2&in=0,1,2,3&limit=1&offset=1")
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	if page.Total != full.Total || page.Offset != 1 || page.Count != 1 || len(page.Rules) != 1 {
		t.Fatalf("trajectory page: %+v", page)
	}
	if page.Rules[0].ID != full.Rules[1].ID {
		t.Fatalf("trajectory page row: id %d, want %d", page.Rules[0].ID, full.Rules[1].ID)
	}

	var ru query.RollUpResult
	_, body = get(t, ts.URL, "/rollup?from=0&to=3&supp=0.02&conf=0.2&limit=2&offset=1")
	if err := json.Unmarshal(body, &ru); err != nil {
		t.Fatal(err)
	}
	if ru.Offset != 1 || ru.Count > 2 || ru.Count != len(ru.Rules) || ru.Total < ru.Count {
		t.Fatalf("rollup page: total=%d offset=%d count=%d rules=%d", ru.Total, ru.Offset, ru.Count, len(ru.Rules))
	}
}
