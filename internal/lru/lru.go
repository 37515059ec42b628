// Package lru is the bounded, sharded least-recently-used cache behind both
// of tara's answer caches: the query cache of typed answers (internal/tara)
// and the daemon's cache of encoded response bodies (internal/server).
//
// Lemma 4 makes every single-window answer a pure function of (window,
// canonical cut), so both caches key on that pair plus caller-specific
// fields. The caller supplies the key's hash (to spread keys across shards),
// its window (for per-window invalidation when a window is appended) and
// what each value costs; everything else — shard locking, recency order,
// eviction, counts — lives here once.
//
// The cache's one bound is a cost budget split evenly across the shards:
// each shard evicts least-recent-first until its resident cost is back
// within its share, and a value costing more than one share is never stored
// at all. A caller that charges every value 1 gets an entry-count bound.
//
// Values are read and written only under their shard's lock, so a Put that
// overwrites a resident value never races a concurrent Get of it.
package lru

import "sync"

const numShards = 16

// Stats is a point-in-time snapshot of a cache's counts.
type Stats struct {
	Entries int
	// Cost is the summed cost of the resident values; it never exceeds
	// Budget.
	Cost      int64
	Budget    int64
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// Cache is a sharded LRU from K to V. The zero value is not usable; build
// one with New.
type Cache[K comparable, V any] struct {
	shards [numShards]shard[K, V]
	share  int64 // cost bound of one shard
	cost   func(V) int64
	hash   func(K) uint64
	window func(K) int
}

type shard[K comparable, V any] struct {
	mu    sync.Mutex
	byKey map[K]*node[K, V]
	// head is the recency list's sentinel: head.next is the most recent
	// entry, head.prev the least recent.
	head                    node[K, V]
	cost                    int64
	hits, misses, evictions uint64
}

type node[K comparable, V any] struct {
	key        K
	val        V
	cost       int64
	prev, next *node[K, V]
}

// New returns a cache whose resident values cost at most budget in total,
// rounded up to a whole share per shard. cost prices a value (it is called
// once per Put, under no lock); hash spreads keys across shards; window
// reports the knowledge-base window a key belongs to, for InvalidateWindow.
func New[K comparable, V any](budget int64, cost func(V) int64, hash func(K) uint64, window func(K) int) *Cache[K, V] {
	c := &Cache[K, V]{share: max(1, (budget+numShards-1)/numShards), cost: cost, hash: hash, window: window}
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

// remove drops resident node n from the shard.
func (sh *shard[K, V]) remove(n *node[K, V]) {
	n.unlink()
	delete(sh.byKey, n.key)
	sh.cost -= n.cost
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

// Put stores v under k as the most recent entry, replacing (and re-charging)
// the value of a resident k, then evicts the shard's least recent entries
// until its resident cost is within its share. A v costing more than one
// share is not stored, and a resident k is dropped rather than left holding
// an older value.
func (c *Cache[K, V]) Put(k K, v V) {
	cost := c.cost(v)
	sh := c.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n, resident := sh.byKey[k]
	if cost > c.share {
		if resident {
			sh.remove(n)
		}
		return
	}
	if resident {
		n.unlink()
		sh.cost += cost - n.cost
		n.val, n.cost = v, cost
	} else {
		n = &node[K, V]{key: k, val: v, cost: cost}
		sh.byKey[k] = n
		sh.cost += cost
	}
	sh.pushFront(n)
	// n itself fits the share, so the loop stops before reaching it.
	for sh.cost > c.share {
		sh.remove(sh.head.prev)
		sh.evictions++
	}
}

// InvalidateWindow drops every entry whose key belongs to window w and
// reports how many it dropped and what they cost.
func (c *Cache[K, V]) InvalidateWindow(w int) (entries int, cost int64) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for k, n := range sh.byKey {
			if c.window(k) == w {
				sh.remove(n)
				entries++
				cost += n.cost
			}
		}
		sh.mu.Unlock()
	}
	return entries, cost
}

// Stats sums the shards' counts. Each shard is read under its lock, so a
// hit or miss is visible here once the Get that counted it has returned.
func (c *Cache[K, V]) Stats() Stats {
	s := Stats{Budget: c.share * numShards}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Entries += len(sh.byKey)
		s.Cost += sh.cost
		s.Hits += sh.hits
		s.Misses += sh.misses
		s.Evictions += sh.evictions
		sh.mu.Unlock()
	}
	return s
}
