package tara

import (
	"sync/atomic"

	"tara/internal/lru"
	"tara/internal/obs"
	"tara/internal/rules"
)

// The online query cache. Lemma 4 guarantees that every (minsupp, minconf)
// setting inside a time-aware stable region yields exactly the same ruleset,
// so a query result is fully determined by (window, canonical cut location,
// query class) — the cut location being the per-axis grid indexes that
// eps.Slice.CutIndex computes by binary search. The cache memoizes answers
// under that canonical key in a bounded, sharded LRU: canonicalization makes
// it lossless, sharding keeps concurrent readers off one mutex, and the
// bound keeps a daemon's memory flat under adversarial request streams.
//
// Cached values are immutable once stored and handed out as shared,
// read-only slices — a warm Mine hit returns the cached []RuleView itself,
// which is what makes the warm path allocation-free. Query paths therefore
// never mutate an answer in place (MineFiltered filters into a fresh slice);
// callers needing a private copy make one.
// Entries are invalidated per window when AppendWindow lands — windows are
// append-only and slices immutable, so this is defensive rather than
// load-bearing, but it makes the invariant "a cached entry always equals a
// fresh scan" locally checkable.

// queryClass enumerates the cached online query classes.
type queryClass uint8

const (
	classMine queryClass = iota
	classCount
	classRegion
	classDiff
	// classTraj memoizes trajectory aggregate matrices (traj.go). Its keys
	// use window -1 — outside any committed index, so InvalidateWindow never
	// touches them; entries expire by snapshot-pointer comparison instead.
	classTraj
	numQueryClasses
)

// queryClassNames are the /metrics labels, indexed by queryClass.
var queryClassNames = [numQueryClasses]string{"mine", "count", "region", "diff", "traj"}

// cacheKey identifies one canonicalized query. a packs the request's cut
// grid indexes (support index high 32 bits, confidence index low 32); for
// diff queries b packs the second setting's cut, otherwise it is zero.
type cacheKey struct {
	window int32
	class  queryClass
	a, b   uint64
}

// cutKey packs a pair of small non-negative ints — a (support, confidence)
// cut-grid index pair, or a [from, to] window range — into one key word:
// the first in the high 32 bits, the second in the low 32.
func cutKey(a, b int) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }

// diffValue is the cached payload of a Diff/Compare window.
type diffValue struct {
	onlyA, onlyB []rules.ID
}

// defaultQueryCacheSize bounds the cache when Config.QueryCacheSize is zero.
const defaultQueryCacheSize = 4096

// queryCache is the generic sharded LRU plus per-class hit/miss counters.
// The counters are atomics so CacheStats never contends with the query path
// beyond the shard mutexes.
type queryCache struct {
	*lru.Cache[cacheKey, any]
	hits   [numQueryClasses]atomic.Uint64
	misses [numQueryClasses]atomic.Uint64
}

func newQueryCache(size int) *queryCache {
	if size <= 0 {
		size = defaultQueryCacheSize
	}
	// Every entry costs 1, so the budget is an entry count. A byte charge
	// waits until the trajectory aggregate memo (classTraj), which is tens of
	// megabytes over a few dozen entries, has moved out of this cache.
	return &queryCache{Cache: lru.New[cacheKey, any](int64(size), func(any) int64 { return 1 }, hashCacheKey, func(k cacheKey) int { return int(k.window) })}
}

// hashCacheKey mixes the key fields so consecutive windows and cuts spread
// across shards.
func hashCacheKey(k cacheKey) uint64 {
	h := uint64(k.window)*0x9E3779B97F4A7C15 + uint64(k.class)*0xBF58476D1CE4E5B9
	h ^= k.a * 0x94D049BB133111EB
	return h ^ (k.b*0xD6E8FEB86659FD93 + (h >> 29))
}

// get returns the cached value for k, promoting it to most-recent, and
// counts the probe against k's class.
func (c *queryCache) get(k cacheKey) (any, bool) {
	v, ok := c.Get(k)
	if ok {
		c.hits[k.class].Add(1)
	} else {
		c.misses[k.class].Add(1)
	}
	return v, ok
}

// memoize answers k from the query cache, or on a miss runs compute and
// stores its result; with the cache disabled it just runs compute. Cache
// probes record StageCacheProbe spans on tr.
func memoize[V any](f *Framework, tr *obs.Trace, k cacheKey, compute func() (V, error)) (V, error) {
	if f.qcache == nil {
		return compute()
	}
	sp := tr.Start(obs.StageCacheProbe)
	v, ok := f.qcache.get(k)
	sp.End()
	if ok {
		return v.(V), nil
	}
	val, err := compute()
	if err != nil {
		return val, err
	}
	sp = tr.Start(obs.StageCacheProbe)
	f.qcache.Put(k, val)
	sp.End()
	return val, nil
}

// CacheClassStats reports one query class's cache effectiveness.
type CacheClassStats struct {
	Hits     uint64  `json:"hits"`
	Misses   uint64  `json:"misses"`
	HitRatio float64 `json:"hitRatio"`
}

// CacheStats is a point-in-time snapshot of the online query cache, exposed
// by the daemon's /metrics endpoint.
type CacheStats struct {
	Enabled   bool                       `json:"enabled"`
	Entries   int                        `json:"entries"`
	Capacity  int                        `json:"capacity"`
	Hits      uint64                     `json:"hits"`
	Misses    uint64                     `json:"misses"`
	HitRatio  float64                    `json:"hitRatio"`
	Evictions uint64                     `json:"evictions"`
	Classes   map[string]CacheClassStats `json:"classes"`
}

func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// CacheStats snapshots the framework's query cache counters. It takes no
// framework lock and is safe to call concurrently with queries and appends.
func (f *Framework) CacheStats() CacheStats {
	if f.qcache == nil {
		return CacheStats{}
	}
	c := f.qcache
	ls := c.Stats()
	s := CacheStats{
		Enabled:   true,
		Entries:   ls.Entries,
		Capacity:  int(ls.Budget),
		Evictions: ls.Evictions,
		Classes:   make(map[string]CacheClassStats, numQueryClasses),
	}
	for cl := queryClass(0); cl < numQueryClasses; cl++ {
		h, m := c.hits[cl].Load(), c.misses[cl].Load()
		s.Hits += h
		s.Misses += m
		s.Classes[queryClassNames[cl]] = CacheClassStats{Hits: h, Misses: m, HitRatio: ratio(h, m)}
	}
	s.HitRatio = ratio(s.Hits, s.Misses)
	return s
}
