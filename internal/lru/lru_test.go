package lru

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

type testKey struct{ window, n int }

func hashTestKey(k testKey) uint64 {
	return uint64(k.window)*0x9E3779B97F4A7C15 ^ uint64(k.n)*0xBF58476D1CE4E5B9
}

func windowOf(k testKey) int { return k.window }

// valueOf makes every value a pure function of its key, so any hit can be
// checked against the key it was probed with.
func valueOf(k testKey) int { return k.window*1_000_000 + k.n }

// costOf charges a value 1 to 4, so shards hold differently sized entries.
func costOf(v int) int64 { return int64(v%4) + 1 }

// TestRecencyOrder drives one shard (constant hash) through the LRU policy:
// a Get promotes, a Put of a resident key replaces its value and promotes,
// and a full shard evicts its least recent entry.
func TestRecencyOrder(t *testing.T) {
	c := New[int, string](3*numShards, func(string) int64 { return 1 }, func(int) uint64 { return 0 }, func(int) int { return 0 })
	c.Put(1, "a")
	c.Put(2, "b")
	c.Put(3, "c")
	c.Get(1)       // order: 1 3 2
	c.Put(3, "c2") // order: 3 1 2
	c.Put(4, "d")  // evicts 2
	if _, ok := c.Peek(2); ok {
		t.Fatal("least recent entry survived eviction")
	}
	c.Put(5, "e") // evicts 1
	if _, ok := c.Peek(1); ok {
		t.Fatal("entry 1 should have been least recent after 3 was re-put")
	}
	if v, ok := c.Get(3); !ok || v != "c2" {
		t.Fatalf("Get(3) = %q, %v; want the replaced value", v, ok)
	}
	st := c.Stats()
	if st.Entries != 3 || st.Cost != 3 || st.Evictions != 2 || st.Hits != 2 || st.Misses != 0 {
		t.Fatalf("stats %+v: want 3 entries of cost 3, 2 evictions, 2 hits, 0 misses (Peek is not counted)", st)
	}
}

// TestCostBudgetEviction drives one shard (constant hash) with values that
// cost their length: eviction drops least-recent entries until the shard is
// back within its share, a value over the share is never resident, replacing
// a value re-charges it, and InvalidateWindow empties the cost.
func TestCostBudgetEviction(t *testing.T) {
	const share = 10
	c := New[int, string](share*numShards, func(v string) int64 { return int64(len(v)) },
		func(int) uint64 { return 0 }, func(k int) int { return k % 2 })
	// resident checks which keys are resident. Its Peeks reorder recency, so
	// every step after it starts with Puts that set the order again.
	resident := func(keys ...int) {
		t.Helper()
		for k := 0; k < 8; k++ {
			_, got := c.Peek(k)
			want := false
			for _, r := range keys {
				want = want || r == k
			}
			if got != want {
				t.Fatalf("key %d resident = %v, want %v", k, got, want)
			}
		}
	}
	c.Put(1, "aaaa")   // 4
	c.Put(2, "bbb")    // 7
	c.Put(3, "cc")     // 9
	c.Get(1)           // order: 1 3 2
	c.Put(4, "dddddd") // 15: evicts 2 (12), then 3 (10)
	resident(1, 4)
	if st := c.Stats(); st.Cost != 10 || st.Evictions != 2 || st.Budget != share*numShards {
		t.Fatalf("stats %+v: want cost 10, 2 evictions, budget %d", st, share*numShards)
	}

	c.Put(5, "eeeeeeeeeee") // 11 > share: not stored, nothing evicted
	resident(1, 4)
	if st := c.Stats(); st.Cost != 10 || st.Evictions != 2 {
		t.Fatalf("oversized put changed the shard: %+v", st)
	}

	c.Put(1, "a") // re-charged 4 -> 1; order: 1 4
	if st := c.Stats(); st.Cost != 7 || st.Entries != 2 {
		t.Fatalf("after shrinking 1: %+v, want cost 7 over 2 entries", st)
	}
	c.Put(4, "dddddddd") // re-charged 6 -> 8: cost 9, order: 4 1
	c.Put(6, "ff")       // 11: evicts 1 (10)
	resident(4, 6)
	if v, _ := c.Peek(4); v != "dddddddd" {
		t.Fatalf("Peek(4) = %q, want the replacing value", v)
	}
	c.Put(4, "ddddddddddd") // replaced by an oversized value: dropped
	resident(6)
	if st := c.Stats(); st.Cost != 2 || st.Entries != 1 {
		t.Fatalf("after oversized replace: %+v, want cost 2 over 1 entry", st)
	}

	c.Put(7, "ggg") // 5
	if n, cost := c.InvalidateWindow(0); n != 1 || cost != 2 {
		t.Fatalf("InvalidateWindow(0) = %d entries, cost %d; want 1, 2", n, cost)
	}
	if n, cost := c.InvalidateWindow(1); n != 1 || cost != 3 {
		t.Fatalf("InvalidateWindow(1) = %d entries, cost %d; want 1, 3", n, cost)
	}
	if st := c.Stats(); st.Cost != 0 || st.Entries != 0 {
		t.Fatalf("after invalidating every window: %+v", st)
	}
}

// TestConcurrentProperty runs Get, Peek, Put and InvalidateWindow from
// several goroutines over a key space much larger than the budget, so
// eviction runs constantly. Values cost 1 to 4 by key. Under -race it also
// checks that values are only touched under the shard lock. Every hit must
// return its key's value; at quiescence the resident cost is within the
// budget and equals the summed cost of the resident values, and the hit/miss
// counts match the Gets issued; and InvalidateWindow with no concurrent Put
// leaves no key of that window resident.
func TestConcurrentProperty(t *testing.T) {
	const (
		windows = 8
		perWin  = 64
		workers = 4
		opsEach = 20000
		budget  = 128
	)
	c := New[testKey, int](budget, costOf, hashTestKey, windowOf)
	var gets atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < opsEach; i++ {
				k := testKey{window: r.Intn(windows), n: r.Intn(perWin)}
				switch op := r.Intn(100); {
				case op < 45:
					gets.Add(1)
					if v, ok := c.Get(k); ok && v != valueOf(k) {
						t.Errorf("Get(%v) = %d, want %d", k, v, valueOf(k))
						return
					}
				case op < 55:
					if v, ok := c.Peek(k); ok && v != valueOf(k) {
						t.Errorf("Peek(%v) = %d, want %d", k, v, valueOf(k))
						return
					}
				case op < 99:
					c.Put(k, valueOf(k))
				default:
					c.InvalidateWindow(k.window)
				}
			}
		}(int64(g))
	}
	wg.Wait()

	st := c.Stats()
	if st.Budget != budget {
		t.Fatalf("budget %d, requested %d", st.Budget, budget)
	}
	if st.Cost > st.Budget {
		t.Fatalf("resident cost %d over budget %d", st.Cost, st.Budget)
	}
	var sum int64
	entries := 0
	for w := 0; w < windows; w++ {
		for n := 0; n < perWin; n++ {
			// Peek refreshes recency but never evicts, so probing every key
			// leaves the resident set as it is.
			if v, ok := c.Peek(testKey{window: w, n: n}); ok {
				sum += costOf(v)
				entries++
			}
		}
	}
	if sum != st.Cost || entries != st.Entries {
		t.Fatalf("resident values cost %d over %d entries; Stats says %d over %d", sum, entries, st.Cost, st.Entries)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions under a key space 10x the budget")
	}
	if st.Hits+st.Misses != gets.Load() {
		t.Fatalf("hits %d + misses %d != %d Gets", st.Hits, st.Misses, gets.Load())
	}

	for n := 0; n < perWin; n++ {
		c.Put(testKey{window: 3, n: n}, valueOf(testKey{window: 3, n: n}))
	}
	before := c.Stats()
	dropped, cost := c.InvalidateWindow(3)
	if dropped == 0 {
		t.Fatal("InvalidateWindow(3) dropped nothing right after filling window 3")
	}
	for n := 0; n < perWin; n++ {
		if _, ok := c.Peek(testKey{window: 3, n: n}); ok {
			t.Fatalf("key %d of window 3 resident after InvalidateWindow(3)", n)
		}
	}
	if after := c.Stats(); after.Entries != before.Entries-dropped || after.Cost != before.Cost-cost {
		t.Fatalf("entries %d -> %d and cost %d -> %d, but %d entries of cost %d reported dropped",
			before.Entries, after.Entries, before.Cost, after.Cost, dropped, cost)
	}
}
