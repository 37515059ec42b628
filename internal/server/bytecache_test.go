package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	"tara/internal/gen"
	"tara/internal/mining"
	"tara/internal/tara"
)

// getWithHeaders performs a GET returning status, body and the response
// headers, for the ETag/If-None-Match tests.
func getWithHeaders(t *testing.T, base, path string, hdr map[string]string) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
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

// TestByteCacheDifferential proves the byte cache is invisible to clients:
// every query class answers with byte-identical status and body whether the
// cache is enabled or disabled, including warm repeats served straight from
// cached bytes. The cached server is hammered by concurrent clients so that
// under -race this doubles as the cache's data-race check.
func TestByteCacheDifferential(t *testing.T) {
	fw := testFramework(t)
	cached := newTestServer(t, Config{MinLimit: fixedCap})                    // byte cache on (default size)
	plain := newTestServer(t, Config{ByteCacheBytes: -1, MinLimit: fixedCap}) // byte cache off
	tsCached := httptest.NewServer(cached.Handler())
	defer tsCached.Close()
	tsPlain := httptest.NewServer(plain.Handler())
	defer tsPlain.Close()

	item := url.QueryEscape(anItemName(t, fw))
	paths := []string{
		// Byte-cacheable classes: mine and recommend (with and without a
		// lift filter), count.
		"/mine?w=0&supp=0.02&conf=0.2",
		"/mine?w=1&supp=0.02&conf=0.2&lift=1.1",
		"/count?w=0&supp=0.02&conf=0.2",
		"/count?w=2&supp=0.05&conf=0.3",
		"/recommend?w=1&supp=0.02&conf=0.2",
		"/recommend?w=1&supp=0.02&conf=0.2&lift=1.1",
		// Not byte-cacheable: multi-window and content classes must flow
		// through the normal path identically.
		"/trajectory?w=0&supp=0.02&conf=0.2&in=0,1,2,3",
		"/diff?w=0,1,2,3&a=0.02,0.2&b=0.05,0.3",
		"/rollup?from=0&to=3&supp=0.02&conf=0.2",
		"/drill?rule=0&from=0&to=3",
		"/content?w=0&supp=0.02&conf=0.2&items=" + item,
		"/rank?from=0&to=3&supp=0.02&conf=0.2&k=5",
		"/periodic?from=0&to=3&supp=0.02&conf=0.2&period=2&k=5",
		"/plot?w=0",
	}

	// Reference answers from the cache-disabled server.
	want := make(map[string]struct {
		code int
		body []byte
	}, len(paths))
	for _, p := range paths {
		code, body := get(t, tsPlain.URL, p)
		want[p] = struct {
			code int
			body []byte
		}{code, body}
	}

	// Hammer the cached server: 8 concurrent clients, several iterations per
	// path, so the first touch is a miss and every later one a warm hit — all
	// must be byte-identical to the cache-disabled reference.
	const clients = 8
	const iters = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				for _, p := range paths {
					resp, err := http.Get(tsCached.URL + p)
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
					w := want[p]
					if resp.StatusCode != w.code {
						errs <- fmt.Errorf("GET %s: status %d, want %d", p, resp.StatusCode, w.code)
						return
					}
					if !bytes.Equal(body, w.body) {
						errs <- fmt.Errorf("GET %s: cached body diverges:\n got %s\nwant %s", p, body, w.body)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := cached.bcache.stats()
	if st.Hits == 0 {
		t.Fatalf("differential run never hit the byte cache: %+v", st)
	}
	if st.Requests < st.Hits+st.Misses {
		t.Fatalf("counter ordering violated in final stats: %+v", st)
	}
	if ps := plain.bcache.stats(); ps.Enabled || ps.Requests != 0 {
		t.Fatalf("disabled byte cache recorded traffic: %+v", ps)
	}
}

// TestByteCacheETagAndNotModified covers the conditional-request protocol:
// cacheable answers carry a strong ETag, If-None-Match short-circuits to an
// empty 304 on both the warm and cold paths, and non-cacheable responses
// carry no ETag at all.
func TestByteCacheETagAndNotModified(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const path = "/mine?w=0&supp=0.02&conf=0.2"
	code, body, hdr := getWithHeaders(t, ts.URL, path, nil)
	if code != http.StatusOK || len(body) == 0 {
		t.Fatalf("first GET: status %d, %d body bytes", code, len(body))
	}
	etag := hdr.Get("ETag")
	if etag == "" || etag[0] != '"' {
		t.Fatalf("missing or unquoted ETag: %q", etag)
	}

	// Warm conditional: 304, empty body, same tag.
	code, b304, hdr := getWithHeaders(t, ts.URL, path, map[string]string{"If-None-Match": etag})
	if code != http.StatusNotModified || len(b304) != 0 {
		t.Fatalf("warm conditional: status %d, %d body bytes, want 304 empty", code, len(b304))
	}
	if hdr.Get("ETag") != etag {
		t.Fatalf("304 carries tag %q, want %q", hdr.Get("ETag"), etag)
	}

	// Cold conditional: a fresh server (empty cache) over the same knowledge
	// base derives the same generation-keyed tag, so the miss path must also
	// answer 304.
	s2 := newTestServer(t, Config{})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	code, b304, _ = getWithHeaders(t, ts2.URL, path, map[string]string{"If-None-Match": etag})
	if code != http.StatusNotModified || len(b304) != 0 {
		t.Fatalf("cold conditional: status %d, %d body bytes, want 304 empty", code, len(b304))
	}

	// Stale or foreign tags must get the full body; * matches anything.
	code, full, _ := getWithHeaders(t, ts.URL, path, map[string]string{"If-None-Match": `"0123456789abcdef"`})
	if code != http.StatusOK || !bytes.Equal(full, body) {
		t.Fatalf("mismatched tag: status %d, body equal=%v", code, bytes.Equal(full, body))
	}
	code, _, _ = getWithHeaders(t, ts.URL, path, map[string]string{"If-None-Match": `"nope", ` + etag})
	if code != http.StatusNotModified {
		t.Fatalf("tag list containing the entity tag: status %d, want 304", code)
	}
	code, _, _ = getWithHeaders(t, ts.URL, path, map[string]string{"If-None-Match": "*"})
	if code != http.StatusNotModified {
		t.Fatalf("If-None-Match: *: status %d, want 304", code)
	}

	// A different cut point must answer with a different tag.
	_, _, hdr2 := getWithHeaders(t, ts.URL, "/mine?w=0&supp=0.05&conf=0.3", nil)
	if tag2 := hdr2.Get("ETag"); tag2 == "" || tag2 == etag {
		t.Fatalf("distinct cut shares tag: %q vs %q", tag2, etag)
	}

	// Non-cacheable classes and the trace debug path carry no ETag.
	for _, p := range []string{
		"/diff?w=0,1,2,3&a=0.02,0.2&b=0.05,0.3",
		"/rollup?from=0&to=3&supp=0.02&conf=0.2",
		path + "&debug=trace",
	} {
		code, _, hdr := getWithHeaders(t, ts.URL, p, nil)
		if code != http.StatusOK {
			t.Fatalf("GET %s: status %d", p, code)
		}
		if tag := hdr.Get("ETag"); tag != "" {
			t.Errorf("GET %s: unexpected ETag %q on uncacheable response", p, tag)
		}
	}

	if st := s.bcache.stats(); st.NotModified < 3 {
		t.Fatalf("notModified counter = %d, want >= 3: %+v", st.NotModified, st)
	}
}

// TestRecommendLiftAboveEveryRule: a lift filter above every rule's lift has
// no upper end to its stable interval. That end must encode as JSON null
// (encoding/json refuses +Inf), so the answer is a parseable empty region
// whether it is served through the byte cache or not.
func TestRecommendLiftAboveEveryRule(t *testing.T) {
	const path = "/recommend?w=0&supp=0.02&conf=0.2&lift=1000"
	for _, cacheBytes := range []int64{0, -1} {
		s := newTestServer(t, Config{ByteCacheBytes: cacheBytes})
		ts := httptest.NewServer(s.Handler())
		code, body, hdr := getWithHeaders(t, ts.URL, path, nil)
		ts.Close()
		if code != http.StatusOK {
			t.Fatalf("ByteCacheBytes=%d: status %d: %s", cacheBytes, code, body)
		}
		var got struct {
			NumRules int            `json:"numRules"`
			Lift     map[string]any `json:"lift"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("ByteCacheBytes=%d: body %q is not JSON: %v", cacheBytes, body, err)
		}
		high, ok := got.Lift["high"]
		if !ok || high != nil {
			t.Errorf("ByteCacheBytes=%d: lift %s, want a null high end", cacheBytes, body)
		}
		if got.NumRules != 0 {
			t.Errorf("ByteCacheBytes=%d: numRules = %d, want 0", cacheBytes, got.NumRules)
		}
		if tag := hdr.Get("ETag"); (tag != "") != (cacheBytes >= 0) {
			t.Errorf("ByteCacheBytes=%d: ETag %q", cacheBytes, tag)
		}
	}
}

// TestByteCacheDisabled: a negative ByteCacheBytes must leave the cache out of
// the pipeline entirely — no ETag headers, no response-cache metrics.
func TestByteCacheDisabled(t *testing.T) {
	s := newTestServer(t, Config{ByteCacheBytes: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if s.bcache != nil {
		t.Fatal("bcache constructed despite ByteCacheBytes=-1")
	}
	code, _, hdr := getWithHeaders(t, ts.URL, "/mine?w=0&supp=0.02&conf=0.2", nil)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if tag := hdr.Get("ETag"); tag != "" {
		t.Fatalf("ETag %q present with cache disabled", tag)
	}
	code, body := get(t, ts.URL, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.ResponseCache.Enabled {
		t.Fatalf("responseCache enabled in /metrics with cache off: %+v", snap.ResponseCache)
	}
}

// TestByteCacheInvalidationOnAppend is the staleness property test: when a
// window commits, exactly that window's encoded bytes are dropped — entries
// for other windows survive — and a subsequent identical query returns the
// updated bytes under a fresh ETag, never a stale poisoned body.
//
// The serving framework holds windows 0..2; a twin framework built with all
// four windows acts as the oracle, both for the correct window-3 body and for
// the canonical cut the window-3 query will map to — which lets the test
// plant a poisoned cache entry under the exact key the real query will probe
// after the append.
func TestByteCacheInvalidationOnAppend(t *testing.T) {
	db, err := gen.Retail(gen.RetailParams{Transactions: 400, NumItems: 40, AvgLen: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	windows, err := db.PartitionByCount(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tara.Config{
		GenMinSupport: 0.01,
		GenMinConf:    0.1,
		MaxItemsetLen: 3,
		Miner:         mining.Eclat{},
	}
	serving := tara.New(db.Dict, cfg)
	oracle := tara.New(db.Dict, cfg)
	for i, w := range windows {
		if err := oracle.AppendWindow(w); err != nil {
			t.Fatal(err)
		}
		if i < 3 {
			if err := serving.AppendWindow(w); err != nil {
				t.Fatal(err)
			}
		}
	}

	s := newTestServer(t, Config{Framework: serving})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	so := newTestServer(t, Config{Framework: oracle, ByteCacheBytes: -1})
	tso := httptest.NewServer(so.Handler())
	defer tso.Close()

	const supp, conf = 0.02, 0.2
	pathFor := func(w int) string { return fmt.Sprintf("/count?w=%d&supp=%g&conf=%g", w, supp, conf) }

	// Warm the cache for the existing windows and remember their bodies.
	bodies := make([][]byte, 3)
	for w := 0; w < 3; w++ {
		code, body := get(t, ts.URL, pathFor(w))
		if code != http.StatusOK {
			t.Fatalf("warming window %d: status %d", w, code)
		}
		bodies[w] = body
	}

	// Plant a poisoned entry under the key the post-append window-3 query
	// will use. The builds are deterministic, so the oracle's canonical cut
	// for window 3 is the cut the serving framework will have after its own
	// append.
	cut, err := oracle.CanonicalCut(3, supp, conf)
	if err != nil {
		t.Fatal(err)
	}
	poisonKey := byteCacheKey{class: byteCount, window: 3, cut: cut}
	poisonTag := `"feedfacefeedface"`
	s.bcache.put(&byteCacheEntry{key: poisonKey, etag: poisonTag, body: []byte(`{"poisoned":true}` + "\n")})

	entriesBefore := s.bcache.stats().Entries
	if entriesBefore != 4 {
		t.Fatalf("expected 4 resident entries before append, have %d", entriesBefore)
	}

	// The append must fire the OnAppend hook and drop exactly the window-3
	// entry: the poisoned body, and nothing else.
	if err := serving.AppendWindow(windows[3]); err != nil {
		t.Fatal(err)
	}
	st := s.bcache.stats()
	if st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want exactly 1 (the poisoned window-3 entry): %+v", st.Invalidations, st)
	}
	if st.Entries != 3 {
		t.Fatalf("entries = %d after invalidation, want 3 untouched windows", st.Entries)
	}

	// Untouched windows still answer from cache with unchanged bytes.
	hitsBefore := st.Hits
	for w := 0; w < 3; w++ {
		code, body := get(t, ts.URL, pathFor(w))
		if code != http.StatusOK || !bytes.Equal(body, bodies[w]) {
			t.Fatalf("window %d after append: status %d, body changed=%v", w, code, !bytes.Equal(body, bodies[w]))
		}
	}
	if st := s.bcache.stats(); st.Hits < hitsBefore+3 {
		t.Fatalf("untouched windows did not serve from cache: hits %d -> %d", hitsBefore, st.Hits)
	}

	// The touched window must answer freshly: correct bytes (oracle agrees),
	// not the poisoned body, under a tag that is not the poisoned tag.
	code, fresh, hdr := getWithHeaders(t, ts.URL, pathFor(3), nil)
	if code != http.StatusOK {
		t.Fatalf("window 3 after append: status %d", code)
	}
	if bytes.Contains(fresh, []byte("poisoned")) {
		t.Fatalf("stale poisoned body served after append: %s", fresh)
	}
	_, want := get(t, tso.URL, pathFor(3))
	if !bytes.Equal(fresh, want) {
		t.Fatalf("window 3 body diverges from oracle:\n got %s\nwant %s", fresh, want)
	}
	if tag := hdr.Get("ETag"); tag == "" || tag == poisonTag {
		t.Fatalf("window 3 answered under stale tag %q", tag)
	}
}

// TestByteCacheStatsOrderingUnderLoad snapshots the response-cache counters
// while concurrent clients drive cacheable traffic and asserts the ordering
// invariants — hits <= requests and hits+misses <= requests — hold in every
// mid-flight snapshot, and that /metrics then reports resident bytes within
// the byte budget. Run under -race this also exercises the snapshot path
// against concurrent counter updates.
func TestByteCacheStatsOrderingUnderLoad(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	paths := []string{
		"/mine?w=0&supp=0.02&conf=0.2",
		"/count?w=1&supp=0.02&conf=0.2",
		"/count?w=2&supp=0.05&conf=0.3",
		"/recommend?w=3&supp=0.02&conf=0.2",
	}
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				p := paths[(seed+i)%len(paths)]
				resp, err := http.Get(ts.URL + p)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(c)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	// Snapshot continuously until the traffic drains; every snapshot, however
	// it interleaves with in-flight counter updates, must satisfy the
	// ordering invariants.
	for i := 0; ; i++ {
		st := s.bcache.stats()
		if st.Hits > st.Requests {
			t.Fatalf("snapshot %d: hits %d > requests %d", i, st.Hits, st.Requests)
		}
		if st.Hits+st.Misses > st.Requests {
			t.Fatalf("snapshot %d: hits %d + misses %d > requests %d", i, st.Hits, st.Misses, st.Requests)
		}
		if st.HitRatio < 0 || st.HitRatio > 1 {
			t.Fatalf("snapshot %d: hit ratio %v out of range", i, st.HitRatio)
		}
		select {
		case <-finished:
			if st := s.bcache.stats(); st.Hits == 0 {
				t.Fatalf("load test never hit the cache: %+v", st)
			}
			var m struct {
				ResponseCache ByteCacheStats `json:"responseCache"`
			}
			if code, body := get(t, ts.URL, "/metrics"); code != http.StatusOK {
				t.Fatalf("/metrics status %d: %s", code, body)
			} else if err := json.Unmarshal(body, &m); err != nil {
				t.Fatal(err)
			}
			if rc := m.ResponseCache; rc.Bytes == 0 || rc.Bytes > rc.CapacityBytes || rc.CapacityBytes != defaultByteCacheBytes {
				t.Fatalf("/metrics responseCache holds %d bytes of %d, want 0 < bytes <= capacityBytes = %d", rc.Bytes, rc.CapacityBytes, defaultByteCacheBytes)
			}
			return
		default:
		}
	}
}

// TestByteCacheLRUAndSameKeyPut: unit coverage for the shard mechanics —
// the byte budget holds with evictions counted and every resident entry
// charged its bytes, and a same-key put keeps the resident entry (the key
// is a lossless function of the body).
func TestByteCacheLRUAndSameKeyPut(t *testing.T) {
	c := newByteCache(16 << 10) // 1 KiB per shard: a few small entries each
	var e *byteCacheEntry
	for i := 0; i < 1000; i++ {
		e = &byteCacheEntry{
			key:  byteCacheKey{class: byteMine, window: int32(i), cut: uint64(i)},
			etag: fmt.Sprintf("%q", fmt.Sprintf("%016x", i)),
			body: []byte("{}\n"),
		}
		c.put(e)
	}
	st := c.stats()
	if st.Bytes > st.CapacityBytes || st.Evictions == 0 {
		t.Fatalf("cache holds %d bytes (capacity %d) after %d evictions", st.Bytes, st.CapacityBytes, st.Evictions)
	}
	if st.Bytes != int64(st.Entries)*e.cost() {
		t.Fatalf("%d equal-sized entries of %d bytes charged %d bytes", st.Entries, e.cost(), st.Bytes)
	}

	k := byteCacheKey{class: byteCount, window: 7, cut: 12}
	first := &byteCacheEntry{key: k, etag: `"a"`, body: []byte(`1` + "\n")}
	c.put(first)
	c.put(&byteCacheEntry{key: k, etag: `"b"`, body: []byte(`2` + "\n")})
	if e, ok := c.get(k); !ok || e != first {
		t.Fatalf("same-key put replaced the resident entry: %+v", e)
	}
}

func TestEtagMatches(t *testing.T) {
	const tag = `"00c0ffee00c0ffee"`
	cases := []struct {
		name   string
		header string
		etag   string
		want   bool
	}{
		{"empty header", "", tag, false},
		{"exact", tag, tag, true},
		{"star", "*", tag, true},
		{"other tag", `"other"`, tag, false},
		{"list containing tag", `"other", ` + tag, tag, true},
		{"surrounding space", ` ` + tag + ` `, tag, true},
		{"list without tag", `"other", "another"`, tag, false},

		// RFC 9110 §13.1.2: If-None-Match uses WEAK comparison — a W/
		// prefix on either side is ignored; only the opaque tags must match.
		// This is what an origin sees behind a proxy (e.g. nginx) that
		// downgrades tags to weak when it re-compresses bodies.
		{"weak candidate vs strong tag", `W/` + tag, tag, true},
		{"weak candidate in list", `"other", W/` + tag, tag, true},
		{"strong candidate vs weak tag", tag, `W/` + tag, true},
		{"weak vs weak", `W/` + tag, `W/` + tag, true},
		{"weak candidate, different opaque", `W/"other"`, tag, false},

		// Entity-tag list parsing: commas are legal inside a quoted opaque
		// tag, so the header must be parsed as quoted strings, not split
		// blindly on commas.
		{"comma inside tag, match", `"a,b"`, `"a,b"`, true},
		{"comma inside tag, no match", `"a,b"`, `"c"`, false},
		{"comma-tag then match", `"a,b", ` + tag, tag, true},
		{"weak comma-tag then match", `W/"x,y", ` + tag, tag, true},
		{"tag is a list member prefix", `"00c0ffee"`, tag, false},

		// Malformed members are skipped, not matched.
		{"unquoted garbage", `00c0ffee00c0ffee`, tag, false},
		{"unquoted garbage then match", `garbage, ` + tag, tag, true},
		{"unterminated tag", `"unterminated`, tag, false},
		{"bare W/", `W/`, tag, false},
		{"empty members", `,, ` + tag + ` ,`, tag, true},

		// Per-encoding tags: the gzip variant's "-gz" tag never validates
		// against the identity tag, and vice versa.
		{"identity tag vs gzip tag", tag, gzipTag(tag), false},
		{"gzip tag vs gzip tag", gzipTag(tag), gzipTag(tag), true},
	}
	for _, c := range cases {
		if got := etagMatches(c.header, c.etag); got != c.want {
			t.Errorf("%s: etagMatches(%q, %q) = %v, want %v", c.name, c.header, c.etag, got, c.want)
		}
	}
}
