package tara

import (
	"container/list"
	"sync"
	"sync/atomic"

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
	// use window -1 — outside any committed index, so invalidateWindow never
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

// cutKey packs a (support, confidence) cut-grid index pair.
func cutKey(si, ci int) uint64 { return uint64(uint32(si))<<32 | uint64(uint32(ci)) }

// diffValue is the cached payload of a Diff/Compare window.
type diffValue struct {
	onlyA, onlyB []rules.ID
}

const cacheShards = 16

// DefaultQueryCacheSize bounds the cache when Config.QueryCacheSize is zero.
const DefaultQueryCacheSize = 4096

type cacheEntry struct {
	key cacheKey
	val any
}

type cacheShard struct {
	mu    sync.Mutex
	lru   *list.List // front = most recent; values are *cacheEntry
	byKey map[cacheKey]*list.Element
}

// queryCache is the sharded LRU. Counters are atomics so CacheStats never
// contends with the query path beyond the shard mutexes.
type queryCache struct {
	shards      [cacheShards]cacheShard
	capPerShard int
	hits        [numQueryClasses]atomic.Uint64
	misses      [numQueryClasses]atomic.Uint64
	evictions   atomic.Uint64
}

func newQueryCache(size int) *queryCache {
	if size <= 0 {
		size = DefaultQueryCacheSize
	}
	per := (size + cacheShards - 1) / cacheShards
	if per < 1 {
		per = 1
	}
	c := &queryCache{capPerShard: per}
	for i := range c.shards {
		c.shards[i].lru = list.New()
		c.shards[i].byKey = make(map[cacheKey]*list.Element)
	}
	return c
}

// shardFor mixes the key fields so consecutive windows and cuts spread
// across shards.
func (c *queryCache) shardFor(k cacheKey) *cacheShard {
	h := uint64(k.window)*0x9E3779B97F4A7C15 + uint64(k.class)*0xBF58476D1CE4E5B9
	h ^= k.a * 0x94D049BB133111EB
	h ^= k.b*0xD6E8FEB86659FD93 + (h >> 29)
	return &c.shards[h%cacheShards]
}

// get returns the cached value for k and promotes it to most-recent.
func (c *queryCache) get(k cacheKey) (any, bool) {
	sh := c.shardFor(k)
	sh.mu.Lock()
	el, ok := sh.byKey[k]
	var v any
	if ok {
		sh.lru.MoveToFront(el)
		// Read under the lock: put overwrites an existing entry's value in
		// place (a trajectory aggregate re-stored for a newer snapshot).
		v = el.Value.(*cacheEntry).val
	}
	sh.mu.Unlock()
	if !ok {
		c.misses[k.class].Add(1)
		return nil, false
	}
	c.hits[k.class].Add(1)
	return v, true
}

// put stores v under k, evicting the shard's least-recent entry when full.
func (c *queryCache) put(k cacheKey, v any) {
	sh := c.shardFor(k)
	sh.mu.Lock()
	if el, ok := sh.byKey[k]; ok {
		el.Value.(*cacheEntry).val = v
		sh.lru.MoveToFront(el)
		sh.mu.Unlock()
		return
	}
	evicted := false
	if sh.lru.Len() >= c.capPerShard {
		back := sh.lru.Back()
		delete(sh.byKey, back.Value.(*cacheEntry).key)
		sh.lru.Remove(back)
		evicted = true
	}
	sh.byKey[k] = sh.lru.PushFront(&cacheEntry{key: k, val: v})
	sh.mu.Unlock()
	if evicted {
		c.evictions.Add(1)
	}
}

// invalidateWindow drops every entry cached for window w.
func (c *queryCache) invalidateWindow(w int) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for el := sh.lru.Front(); el != nil; {
			next := el.Next()
			if e := el.Value.(*cacheEntry); e.key.window == int32(w) {
				delete(sh.byKey, e.key)
				sh.lru.Remove(el)
			}
			el = next
		}
		sh.mu.Unlock()
	}
}

// entries counts the currently cached results across shards.
func (c *queryCache) entries() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
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
	s := CacheStats{
		Enabled:   true,
		Entries:   c.entries(),
		Capacity:  c.capPerShard * cacheShards,
		Evictions: c.evictions.Load(),
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
