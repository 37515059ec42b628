package server

import (
	"net/http"
	"testing"
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
