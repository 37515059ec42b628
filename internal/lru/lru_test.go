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

// TestRecencyOrder drives one shard (constant hash) through the LRU policy:
// a Get promotes, a Put of a resident key replaces its value and promotes,
// and a full shard evicts its least recent entry.
func TestRecencyOrder(t *testing.T) {
	c := New[int, string](3*numShards, func(int) uint64 { return 0 }, func(int) int { return 0 })
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
	if st.Entries != 3 || st.Evictions != 2 || st.Hits != 2 || st.Misses != 0 {
		t.Fatalf("stats %+v: want 3 entries, 2 evictions, 2 hits, 0 misses (Peek is not counted)", st)
	}
}

// TestConcurrentProperty runs Get, Peek, Put and InvalidateWindow from
// several goroutines over a key space much larger than the capacity, so
// eviction runs constantly. Under -race it also checks that values are only
// touched under the shard lock. Every hit must return its key's value; at
// quiescence the cache is within capacity and its hit/miss counts match the
// Gets issued; and InvalidateWindow with no concurrent Put leaves no key of
// that window resident.
func TestConcurrentProperty(t *testing.T) {
	const (
		windows  = 8
		perWin   = 64
		workers  = 4
		opsEach  = 20000
		capacity = 64
	)
	c := New[testKey, int](capacity, hashTestKey, windowOf)
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
	if st.Capacity < capacity {
		t.Fatalf("capacity %d below requested %d", st.Capacity, capacity)
	}
	if st.Entries > st.Capacity {
		t.Fatalf("%d entries resident, capacity %d", st.Entries, st.Capacity)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions under a key space 8x the capacity")
	}
	if st.Hits+st.Misses != gets.Load() {
		t.Fatalf("hits %d + misses %d != %d Gets", st.Hits, st.Misses, gets.Load())
	}

	for n := 0; n < perWin; n++ {
		c.Put(testKey{window: 3, n: n}, valueOf(testKey{window: 3, n: n}))
	}
	before := c.Stats().Entries
	dropped := c.InvalidateWindow(3)
	if dropped == 0 {
		t.Fatal("InvalidateWindow(3) dropped nothing right after filling window 3")
	}
	for n := 0; n < perWin; n++ {
		if _, ok := c.Peek(testKey{window: 3, n: n}); ok {
			t.Fatalf("key %d of window 3 resident after InvalidateWindow(3)", n)
		}
	}
	if after := c.Stats().Entries; after != before-dropped {
		t.Fatalf("entries %d -> %d, but %d reported dropped", before, after, dropped)
	}
}
