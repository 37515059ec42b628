// Package lru is the bounded, sharded least-recently-used cache behind both
// of tara's answer caches: the query cache of typed answers (internal/tara)
// and the daemon's cache of encoded response bodies (internal/server).
//
// Lemma 4 makes every single-window answer a pure function of (window,
// canonical cut), so both caches key on that pair plus caller-specific
// fields. The caller supplies the key's hash (to spread keys across shards)
// and its window (for per-window invalidation when a window is appended);
// everything else — shard locking, recency order, eviction, counts — lives
// here once.
//
// Values are read and written only under their shard's lock, so a Put that
// overwrites a resident value never races a concurrent Get of it.
package lru

import "sync"

const numShards = 16

// Stats is a point-in-time snapshot of a cache's counts.
type Stats struct {
	Entries   int
	Capacity  int
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// Cache is a sharded LRU from K to V. The zero value is not usable; build
// one with New.
type Cache[K comparable, V any] struct {
	shards   [numShards]shard[K, V]
	perShard int
	hash     func(K) uint64
	window   func(K) int
}

type shard[K comparable, V any] struct {
	mu    sync.Mutex
	byKey map[K]*node[K, V]
	// head is the recency list's sentinel: head.next is the most recent
	// entry, head.prev the least recent.
	head                    node[K, V]
	hits, misses, evictions uint64
}

type node[K comparable, V any] struct {
	key        K
	val        V
	prev, next *node[K, V]
}

// New returns a cache holding at least size entries (at least one per
// shard). hash spreads keys across shards; window reports the knowledge-base
// window a key belongs to, for InvalidateWindow.
func New[K comparable, V any](size int, hash func(K) uint64, window func(K) int) *Cache[K, V] {
	per := max(1, (size+numShards-1)/numShards)
	c := &Cache[K, V]{perShard: per, hash: hash, window: window}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.byKey = make(map[K]*node[K, V])
		sh.head.prev, sh.head.next = &sh.head, &sh.head
	}
	return c
}

func (c *Cache[K, V]) shardFor(k K) *shard[K, V] { return &c.shards[c.hash(k)%numShards] }

func (n *node[K, V]) unlink() { n.prev.next, n.next.prev = n.next, n.prev }

func (sh *shard[K, V]) pushFront(n *node[K, V]) {
	n.prev, n.next = &sh.head, sh.head.next
	n.next.prev = n
	sh.head.next = n
}

// Get returns the value cached under k, promoting it to most recent, and
// counts the probe as a hit or a miss.
func (c *Cache[K, V]) Get(k K) (V, bool) { return c.get(k, true) }

// Peek is Get without the hit/miss accounting, for re-checks whose original
// probe was already counted. A hit still refreshes recency.
func (c *Cache[K, V]) Peek(k K) (V, bool) { return c.get(k, false) }

func (c *Cache[K, V]) get(k K, count bool) (v V, ok bool) {
	sh := c.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n, ok := sh.byKey[k]
	if ok {
		n.unlink()
		sh.pushFront(n)
		v = n.val
	}
	if count {
		if ok {
			sh.hits++
		} else {
			sh.misses++
		}
	}
	return v, ok
}

// Put stores v under k as the most recent entry, replacing the value of a
// resident k and otherwise evicting the shard's least recent entry when the
// shard is full.
func (c *Cache[K, V]) Put(k K, v V) {
	sh := c.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if n, ok := sh.byKey[k]; ok {
		n.unlink()
		sh.pushFront(n)
		n.val = v
		return
	}
	if len(sh.byKey) >= c.perShard {
		back := sh.head.prev
		back.unlink()
		delete(sh.byKey, back.key)
		sh.evictions++
	}
	n := &node[K, V]{key: k, val: v}
	sh.pushFront(n)
	sh.byKey[k] = n
}

// InvalidateWindow drops every entry whose key belongs to window w and
// reports how many it dropped.
func (c *Cache[K, V]) InvalidateWindow(w int) int {
	dropped := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for k, n := range sh.byKey {
			if c.window(k) == w {
				n.unlink()
				delete(sh.byKey, k)
				dropped++
			}
		}
		sh.mu.Unlock()
	}
	return dropped
}

// Stats sums the shards' counts. Each shard is read under its lock, so a
// hit or miss is visible here once the Get that counted it has returned.
func (c *Cache[K, V]) Stats() Stats {
	s := Stats{Capacity: c.perShard * numShards}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Entries += len(sh.byKey)
		s.Hits += sh.hits
		s.Misses += sh.misses
		s.Evictions += sh.evictions
		sh.mu.Unlock()
	}
	return s
}
