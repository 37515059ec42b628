package server

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
	"sync/atomic"

	"tara/internal/lru"
	"tara/internal/query"
	"tara/internal/traj"
)

// The encoded-response byte cache: the last hop of the zero-copy pipeline.
// Lemma 4 already makes a query answer a pure function of (window, canonical
// cut, query class, extra filter parameters); since committed windows are
// immutable, the *encoded JSON body* is one too. The daemon therefore caches
// final response bytes under that key and serves warm hits by writing the
// cached slice straight to the wire — no decode of the knowledge base, no
// view materialization, no JSON encoding. Entries are immutable byte views:
// stored once, never written again, shared by every concurrent reader.
//
// Each entry carries a strong ETag — a hash of the knowledge-base generation
// plus the canonical key — so two equal ETags imply byte-identical bodies.
// Conditional requests (If-None-Match) short-circuit to 304 without touching
// the body. Entries are invalidated per window through Framework.OnAppend,
// like the query cache's invalidation; windows are append-only, so this
// is defensive, but it keeps "a cached body always equals a fresh encode"
// locally checkable.
//
// Cacheable classes are the single-window, cut-determined ones: mine and
// recommend (the lift filter rides along in the key as raw float bits, mine's
// limit/offset page in the page field) and count. Diff spans multiple
// windows with per-window cuts and stays on the query cache only.
//
// The trajectory classes (topk, similar, emerging) cache too, under their
// raw parameters instead of a canonical cut: their answers range over
// committed windows only, and committed windows are immutable, so an answer
// over an explicit [from, to] is a pure function of the request for all
// time. Emerging's open-ended to=-1 form is canonicalized to the latest
// committed window before keying, which both pins the answer and lets the
// per-window invalidation discipline stand unchanged (a key's window field
// is its range's last window; a window being committed right now can never
// equal the resolved `to` of an already-cached entry).
//
// Bodies are stored per content coding: the identity entry is canonical and
// a gzip-compressed variant (same key, enc=encGzip, "-gz"-suffixed ETag) is
// derived from it on the first gzip-accepting request. Per-window
// invalidation drops every coding of a window's entries alike, since enc is
// part of the key but not of the window match.

// byteClass enumerates the byte-cached response classes.
type byteClass uint8

const (
	byteMine byteClass = iota
	byteCount
	byteRecommend
	byteTopK
	byteSimilar
	byteEmerging
	numByteClasses
)

// Content codings a cached body may be stored under. Identity is the
// canonical entry written by the encode path; the gzip variant is derived
// lazily from it on the first gzip-accepting request (see gzipVariant).
const (
	encIdentity uint8 = iota
	encGzip
)

// byteCacheKey identifies one encoded response. cut is the canonical cut
// (Framework.CanonicalCut) — or, for the trajectory classes, the range's
// first window (window holds its last);
// lift carries math.Float64bits of the lift filter (trajectory: the
// minSupp threshold bits) so distinct filters never share bytes; page packs
// the limit/offset pagination (pageKey layout) so each page caches
// independently; enc is the content coding of the stored body. x and ref
// are the trajectory classes' extra parameters (zero/empty elsewhere): x
// packs minConf bits plus the measure-or-metric and k pair, ref is the
// similarity reference profile in lossless shortest round-trip text.
type byteCacheKey struct {
	class  byteClass
	enc    uint8
	window int32
	cut    uint64
	lift   uint64
	page   uint64
	x      uint64
	x2     uint64
	ref    string
}

// pageKey packs the pagination parameters: offset in the high 32 bits,
// limit in the low 32. Both are validated to fit int32 at decode time.
func pageKey(limit, offset int) uint64 {
	return uint64(uint32(offset))<<32 | uint64(uint32(limit))
}

// defaultByteCacheBytes is the cache's byte budget when
// Config.ByteCacheBytes is zero. A revisit working set of a few hundred
// distinct answers, gzip variants included, is a few megabytes.
const defaultByteCacheBytes = 16 << 20

// entryOverhead is what an entry costs beyond its variable-length bytes: the
// entry struct, the LRU node holding it and its map slot, about 300 B on a
// 64-bit platform.
const entryOverhead = 320

type byteCacheEntry struct {
	key  byteCacheKey
	etag string
	body []byte // immutable after store; includes the trailing newline; cap == len
}

// cost charges an entry its resident bytes.
func (e *byteCacheEntry) cost() int64 {
	return int64(len(e.body)+len(e.etag)+len(e.key.ref)) + entryOverhead
}

// byteCache is the generic sharded LRU over encoded responses, charged in
// bytes, plus the server-side counters. The write/read ordering discipline
// matters for snapshots — see the comments on get and stats.
type byteCache struct {
	lru *lru.Cache[byteCacheKey, *byteCacheEntry]

	// requests counts probes of cacheable requests; get bumps it BEFORE the
	// LRU counts the hit/miss outcome, so a snapshot that reads outcomes
	// first can never observe hits+misses > requests.
	requests      atomic.Uint64
	notModified   atomic.Uint64
	invalidations atomic.Uint64
	// coalesced counts requests that joined another request's in-progress
	// encode through the singleflight layer instead of encoding themselves.
	coalesced atomic.Uint64
}

// newByteCache returns a cache of at most budget resident bytes; zero
// selects defaultByteCacheBytes.
func newByteCache(budget int64) *byteCache {
	if budget == 0 {
		budget = defaultByteCacheBytes
	}
	return &byteCache{lru: lru.New[byteCacheKey, *byteCacheEntry](budget, (*byteCacheEntry).cost, hashByteCacheKey, func(k byteCacheKey) int { return int(k.window) })}
}

// hashByteCacheKey mixes the key fields so consecutive windows and cuts
// spread across shards.
func hashByteCacheKey(k byteCacheKey) uint64 {
	h := uint64(k.window)*0x9E3779B97F4A7C15 + uint64(k.class)*0xBF58476D1CE4E5B9
	h ^= k.cut * 0x94D049BB133111EB
	h ^= k.lift*0xD6E8FEB86659FD93 + (h >> 29)
	h ^= k.page*0xC2B2AE3D27D4EB4F + uint64(k.enc)*0xFF51AFD7ED558CCD
	return h ^ (k.x*0xA24BAED4963EE407 + k.x2*0x9FB21C651E98DF25 + uint64(len(k.ref))*0x8EBC6AF09C88C6E3)
}

// get probes for k's encoded response, promoting a hit to most-recent. The
// request is counted before its outcome so hits <= requests holds under any
// snapshot interleaving (the same discipline as the middleware's
// requests-before-latency ordering). Re-checks whose original probe was
// already counted use lru.Peek instead.
func (c *byteCache) get(k byteCacheKey) (*byteCacheEntry, bool) {
	c.requests.Add(1)
	return c.lru.Get(k)
}

// put stores an encoded response; its body must never be mutated after this
// call. Same key means same bytes (the key is a lossless function of the
// body), so a resident entry is kept and only its recency refreshed. An
// entry over one shard's share of the budget is not stored.
func (c *byteCache) put(e *byteCacheEntry) {
	if _, ok := c.lru.Peek(e.key); !ok {
		c.lru.Put(e.key, e)
	}
}

// invalidateWindow drops every encoded response cached for window w; other
// windows' entries are untouched. Registered with Framework.OnAppend.
func (c *byteCache) invalidateWindow(w int) {
	n, _ := c.lru.InvalidateWindow(w)
	c.invalidations.Add(uint64(n))
}

// ByteCacheStats is the /metrics view of the encoded-response cache.
type ByteCacheStats struct {
	Enabled       bool    `json:"enabled"`
	Entries       int     `json:"entries"`
	Bytes         int64   `json:"bytes"`
	CapacityBytes int64   `json:"capacityBytes"`
	Requests      uint64  `json:"requests"`
	Hits          uint64  `json:"hits"`
	Misses        uint64  `json:"misses"`
	HitRatio      float64 `json:"hitRatio"`
	NotModified   uint64  `json:"notModified"`
	Evictions     uint64  `json:"evictions"`
	Invalidations uint64  `json:"invalidations"`
	Coalesced     uint64  `json:"coalesced"`
}

// ByteCacheStats reports the encoded-response cache's counters; the zero
// value (Enabled false) when the cache is disabled. Exported for the bench
// harness and /metrics.
func (s *Server) ByteCacheStats() ByteCacheStats { return s.bcache.stats() }

// stats snapshots the counters. Outcome counters (hits, misses, notModified)
// are read BEFORE requests: get increments requests first and the outcome
// second, so this order guarantees Hits+Misses <= Requests and
// Hits <= Requests in every mid-traffic snapshot — the same discipline as
// the latency/requests fix in the endpoint middleware.
func (c *byteCache) stats() ByteCacheStats {
	if c == nil {
		return ByteCacheStats{}
	}
	ls := c.lru.Stats()
	s := ByteCacheStats{
		Enabled:       true,
		Entries:       ls.Entries,
		Bytes:         ls.Cost,
		CapacityBytes: ls.Budget,
		Hits:          ls.Hits,
		Misses:        ls.Misses,
		NotModified:   c.notModified.Load(),
		Evictions:     ls.Evictions,
		Invalidations: c.invalidations.Load(),
		Coalesced:     c.coalesced.Load(),
	}
	s.Requests = c.requests.Load()
	if s.Hits+s.Misses > 0 {
		s.HitRatio = float64(s.Hits) / float64(s.Hits+s.Misses)
	}
	return s
}

// byteCacheKeyFor canonicalizes a decoded query to its byte-cache key, or
// reports the request not byte-cacheable; the returned query is the one to
// execute on a miss (identical to the input except for emerging's resolved
// to, which must match the key). Single-window classes key on the canonical
// cut (plus the lift filter bits). Trajectory classes key on their raw
// parameters over an already-committed window range.
func (s *Server) byteCacheKeyFor(q query.Query) (byteCacheKey, query.Query, bool) {
	var class byteClass
	page := uint64(0)
	switch q.Kind {
	case query.Mine:
		class = byteMine
		page = pageKey(q.Limit, q.Offset)
	case query.Count:
		class = byteCount
	case query.Recommend:
		class = byteRecommend
	case query.TopK, query.Similar, query.Emerging:
		return s.trajByteCacheKey(q)
	default:
		return byteCacheKey{}, q, false
	}
	cut, err := s.fw.CanonicalCut(q.Window, q.MinSupp, q.MinConf)
	if err != nil {
		// Out-of-range window and friends: let the normal path produce the
		// error response (errors are not cached).
		return byteCacheKey{}, q, false
	}
	return byteCacheKey{class: class, window: int32(q.Window), cut: cut, lift: math.Float64bits(q.MinLift), page: page}, q, true
}

// trajByteCacheKey keys a trajectory query. The key is a lossless function
// of every answer-shaping parameter: range (cut), thresholds (lift, x low
// bits... see field docs), measure/metric and k (x2), pagination (page) and
// the similarity profile (ref). Emerging's to=-1 is resolved here so the
// executed query and the key always agree on the range.
func (s *Server) trajByteCacheKey(q query.Query) (byteCacheKey, query.Query, bool) {
	if q.Kind == query.Emerging && q.To == -1 {
		q.To = s.fw.Windows() - 1
	}
	if q.From < 0 || q.To < q.From || q.To >= s.fw.Windows() {
		// Out-of-range: let the normal path produce the error response.
		return byteCacheKey{}, q, false
	}
	k := byteCacheKey{
		window: int32(q.To),
		cut:    uint64(q.From),
		lift:   math.Float64bits(q.MinSupp),
		x:      math.Float64bits(q.MinConf),
		page:   pageKey(q.Limit, q.Offset),
	}
	switch q.Kind {
	case query.TopK:
		m, err := traj.MeasureByName(q.Measure)
		if err != nil {
			return byteCacheKey{}, q, false
		}
		k.class = byteTopK
		k.x2 = uint64(uint32(m))<<32 | uint64(uint32(q.TopK))
	case query.Similar:
		m, err := traj.MetricByName(q.Metric)
		if err != nil {
			return byteCacheKey{}, q, false
		}
		k.class = byteSimilar
		k.x2 = uint64(uint32(m))<<32 | uint64(uint32(q.TopK))
		parts := make([]string, len(q.Ref))
		for i, v := range q.Ref {
			// Shortest round-trip formatting is injective on float64, so two
			// different profiles can never share a key.
			parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		k.ref = strings.Join(parts, ",")
	case query.Emerging:
		k.class = byteEmerging
	}
	return k, q, true
}

// etagFor derives the strong entity tag of a cacheable response: a quoted
// FNV-64a hash over the knowledge-base generation and the canonical key.
// Committed windows are immutable, so (generation, key) -> body is a
// function and equal ETags imply byte-identical bodies — strong comparison
// as RFC 9110 defines it.
func etagFor(generation uint64, k byteCacheKey) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(generation)
	put(uint64(k.class))
	put(uint64(uint32(k.window)))
	put(k.cut)
	put(k.lift)
	put(k.page)
	put(k.x)
	put(k.x2)
	h.Write([]byte(k.ref))
	return fmt.Sprintf("%q", fmt.Sprintf("%016x", h.Sum64()))
}

// gzipTag derives the gzip representation's entity tag from the identity
// tag: the same opaque hash with a "-gz" suffix inside the quotes. RFC 9110
// wants distinct representations of a resource to carry distinct tags, so
// the two codings never validate against each other.
func gzipTag(identity string) string {
	return identity[:len(identity)-1] + `-gz"`
}

// etagMatches evaluates If-None-Match per RFC 9110 §13.1.2: weak comparison
// (a W/ prefix on either side is ignored; the opaque tags must be
// identical) over a properly parsed entity-tag list — commas are legal
// inside a quoted opaque tag, so the header cannot be split blindly on
// commas. "*" matches any current representation. Weak comparison matters in
// practice: intermediaries legitimately downgrade tags to weak (nginx does
// whenever it re-compresses a body), and a strong-only comparison makes
// revalidation behind such a proxy permanently miss.
func etagMatches(headerVal, etag string) bool {
	ours := strings.TrimPrefix(etag, "W/")
	rest := headerVal
	for rest != "" {
		rest = strings.TrimLeft(rest, " \t,")
		if rest == "" {
			return false
		}
		if rest[0] == '*' {
			return true
		}
		cand := strings.TrimPrefix(rest, "W/")
		if len(cand) < 2 || cand[0] != '"' {
			// Malformed member: skip to the next comma and keep parsing.
			i := strings.IndexByte(rest, ',')
			if i < 0 {
				return false
			}
			rest = rest[i+1:]
			continue
		}
		end := strings.IndexByte(cand[1:], '"')
		if end < 0 {
			// Unterminated tag: nothing further to parse.
			return false
		}
		if cand[:end+2] == ours {
			return true
		}
		rest = cand[end+2:]
	}
	return false
}
