package server

import (
	"context"
	"net/http"
	"net/url"
	"testing"

	"tara/internal/query"
)

// discardRW drops the body and keeps one header map across requests, so
// AllocsPerRun counts the daemon's allocations rather than a recorder's.
type discardRW struct{ h http.Header }

func (d *discardRW) Header() http.Header         { return d.h }
func (d *discardRW) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardRW) WriteHeader(int)             {}

// warmEncodedAllocs is the allocation ceiling of one warm byte-cache hit on
// /mine through the whole handler chain (routing, request id, trace, query
// decode, cache probe, header writes). Every one of those allocations is
// request-sized, none is answer-sized: the cached body goes to the wire as
// the stored slice. In a long-running daemon the count is 31 (identity), 33
// (gzip) and 33 (paged) — one more than in a process that has served fewer
// than 256 requests, whose request-id counter still boxes without allocating.
// The test holds all three variants to the largest, so a copy of the cached
// body — one more allocation per hit — fails it.
const warmEncodedAllocs = 33

// TestWarmPathAllocations: the zero-copy warm serving path must not silently
// start allocating.
func TestWarmPathAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; counts are only meaningful without it")
	}
	fw := testFramework(t)
	const supp, conf = 0.02, 0.2

	// A warm Framework.Mine hit returns the cached slice itself.
	views, err := fw.Mine(0, supp, conf)
	if err != nil || len(views) == 0 {
		t.Fatalf("priming Mine: %d views, err=%v", len(views), err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := fw.Mine(0, supp, conf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("warm Framework.Mine hit: %v allocs/op, want 0", n)
	}

	for _, tc := range []struct {
		name, url, acceptEncoding string
		cfg                       Config
	}{
		{name: "identity", url: "/mine?w=0&supp=0.02&conf=0.2"},
		{name: "gzip", url: "/mine?w=0&supp=0.02&conf=0.2", acceptEncoding: "gzip", cfg: Config{GzipMinBytes: 1}},
		{name: "paged", url: "/mine?w=0&supp=0.02&conf=0.2&limit=10"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, tc.cfg)
			h := s.Handler()
			req, err := http.NewRequest(http.MethodGet, tc.url, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tc.acceptEncoding != "" {
				req.Header.Set("Accept-Encoding", tc.acceptEncoding)
			}
			w := &discardRW{h: http.Header{}}
			// Prime: the first request encodes and stores the identity body,
			// the second derives the gzip variant, and the rest carry the
			// process past its first 256 request ids (see warmEncodedAllocs).
			for i := 0; i < 256; i++ {
				h.ServeHTTP(w, req)
			}
			if got, want := w.h.Get("Content-Encoding"), tc.acceptEncoding; got != want {
				t.Fatalf("warm response Content-Encoding = %q, want %q", got, want)
			}
			before := s.ByteCacheStats().Hits
			n := testing.AllocsPerRun(100, func() { h.ServeHTTP(w, req) })
			if hits := s.ByteCacheStats().Hits - before; hits < 100 {
				t.Fatalf("only %d byte-cache hits in the measured runs; the warm path was not exercised", hits)
			}
			if n > warmEncodedAllocs {
				t.Errorf("warm encoded /mine hit: %v allocs/op, want <= %d", n, warmEncodedAllocs)
			}
		})
	}
}

// TestColdEncodeExactSize: a cold encode of a large streamed answer
// allocates about one body — the exact-size copy out of the pooled scratch
// buffer — rather than a chain of doubling buffers, and the identity and
// gzip bodies it leaves in the byte cache carry no spare capacity.
func TestColdEncodeExactSize(t *testing.T) {
	fw := testFramework(t)
	q, err := query.FromValues("mine", url.Values{"w": {"0"}, "supp": {"0.02"}, "conf": {"0.2"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := query.Answer(fw, q)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.(query.Streamer); !ok {
		t.Fatalf("/mine answer %T does not stream", res)
	}
	body, err := encodeBody(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) < 100<<10 {
		t.Fatalf("body of %d bytes; the check needs an answer of at least 100 KB", len(body))
	}
	if cap(body) != len(body) {
		t.Errorf("identity body: cap %d, len %d", cap(body), len(body))
	}

	s := newTestServer(t, Config{GzipMinBytes: 1})
	e := &byteCacheEntry{key: byteCacheKey{class: byteMine}, etag: `"0"`, body: body}
	s.bcache.put(e)
	gz, ok := s.gzipVariant(context.Background(), e)
	if !ok {
		t.Fatal("no gzip variant derived")
	}
	if cap(gz.body) != len(gz.body) {
		t.Errorf("gzip body: cap %d, len %d", cap(gz.body), len(gz.body))
	}

	if raceEnabled {
		return // the race detector allocates; byte counts mean nothing under it
	}
	perOp := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := encodeBody(res); err != nil {
				b.Fatal(err)
			}
		}
	}).AllocedBytesPerOp()
	if limit := int64(len(body)) + 8<<10; perOp > limit {
		t.Errorf("cold encode of a %d-byte body allocates %d B/op, want <= %d", len(body), perOp, limit)
	}
}
