package tara

import (
	"math/rand"
	"sync"
	"testing"

	"tara/internal/itemset"
	"tara/internal/rules"
	"tara/internal/txdb"
)

// syntheticWindow is a window shell for AppendRules: the transactions carry
// no items (the premined path never reads them), only the cardinality
// matters.
func syntheticWindow(index, n int) txdb.Window {
	return txdb.Window{
		Index:  index,
		Period: txdb.Period{Start: int64(index) * 1000, End: int64(index)*1000 + 999},
		Tx:     make([]txdb.Transaction, n),
	}
}

// syntheticRules fabricates numRules distinct rules with varied exact counts
// under n transactions.
func syntheticRules(numRules int, n uint32, seed int64) []rules.WithStats {
	r := rand.New(rand.NewSource(seed))
	out := make([]rules.WithStats, numRules)
	for i := range out {
		xy := uint32(1 + r.Intn(int(n)))
		x := xy + uint32(r.Intn(int(n-xy)+1))
		out[i] = rules.WithStats{
			Rule: rules.Rule{
				Ant:  itemset.New(uint32(10 + 2*i)),
				Cons: itemset.New(uint32(11 + 2*i)),
			},
			Stats: rules.Stats{CountXY: xy, CountX: x, CountY: x, N: n},
		}
	}
	return out
}

// The query-cache property: for any request point, the cached, canonicalized
// answer must be element-for-element identical to a cache-bypassing scan —
// Lemma 4 made executable. scanMine is that bypass: it collects through the
// retained reference scan and materializes outside the cache.
func scanMine(f *Framework, w int, minSupp, minConf float64) ([]RuleView, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	slice, err := f.index.Slice(w)
	if err != nil {
		return nil, err
	}
	return f.materializeViews(slice.ScanRules(minSupp, minConf), w)
}

// drawPoint picks a request point, on-grid with probability ~1/4 so cut
// boundaries are exercised.
func drawPoint(r *rand.Rand, f *Framework, w int) (float64, float64) {
	ms := f.cfg.GenMinSupport + r.Float64()*(1-f.cfg.GenMinSupport)
	mc := f.cfg.GenMinConf + r.Float64()*(1-f.cfg.GenMinConf)
	if r.Intn(4) == 0 {
		f.mu.RLock()
		slice, err := f.index.Slice(w)
		if err == nil && slice.NumLocations() > 0 {
			locs := slice.Locations()
			l := locs[r.Intn(len(locs))]
			if l.Supp >= f.cfg.GenMinSupport && l.Conf >= f.cfg.GenMinConf {
				ms, mc = l.Supp, l.Conf
			}
		}
		f.mu.RUnlock()
	}
	return ms, mc
}

// verifyPoint reports divergence with t.Errorf (not Fatalf) so it is safe to
// call from reader goroutines in the concurrency test.
func verifyPoint(t *testing.T, f *Framework, w int, ms, mc float64) {
	t.Helper()
	got, err := f.Mine(w, ms, mc)
	if err != nil {
		t.Errorf("Mine(%d,%g,%g): %v", w, ms, mc, err)
		return
	}
	want, err := scanMine(f, w, ms, mc)
	if err != nil {
		t.Errorf("scanMine(%d,%g,%g): %v", w, ms, mc, err)
		return
	}
	if len(got) != len(want) {
		t.Errorf("Mine(%d,%g,%g) = %d views, scan %d", w, ms, mc, len(got), len(want))
		return
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Stats != want[i].Stats {
			t.Errorf("Mine(%d,%g,%g)[%d] = {%d %v}, scan {%d %v}",
				w, ms, mc, i, got[i].ID, got[i].Stats, want[i].ID, want[i].Stats)
			return
		}
	}
	n, err := f.Count(w, ms, mc)
	if err != nil {
		t.Errorf("Count(%d,%g,%g): %v", w, ms, mc, err)
		return
	}
	if n != len(want) {
		t.Errorf("Count(%d,%g,%g) = %d, scan %d", w, ms, mc, n, len(want))
	}
}

func TestPropertyCachedQueriesMatchScan(t *testing.T) {
	cfg := defaultCfg()
	cfg.QueryCacheSize = 128 // small enough that evictions happen too
	f := build(t, cfg)
	r := rand.New(rand.NewSource(91))
	for w := 0; w < f.Windows(); w++ {
		for i := 0; i < 1000; i++ {
			ms, mc := drawPoint(r, f, w)
			verifyPoint(t, f, w, ms, mc)
			if t.Failed() {
				t.FailNow()
			}
			if i%7 == 0 {
				// Mine hands out the shared cached slice; MineFiltered must
				// filter into a fresh slice, never compact the shared answer
				// in place. The re-verify catches any such corruption.
				if _, err := f.MineFiltered(w, ms, mc, 1.1); err != nil {
					t.Fatal(err)
				}
				verifyPoint(t, f, w, ms, mc)
			}
			if i%11 == 0 {
				reg, err := f.Recommend(w, ms, mc)
				if err != nil {
					t.Fatal(err)
				}
				f.mu.RLock()
				slice, _ := f.index.Slice(w)
				fresh := slice.Region(ms, mc)
				f.mu.RUnlock()
				if reg != fresh {
					t.Fatalf("Recommend(%d,%g,%g) = %+v, fresh %+v", w, ms, mc, reg, fresh)
				}
			}
		}
	}
	st := f.CacheStats()
	if !st.Enabled || st.Hits == 0 {
		t.Fatalf("cache never hit: %+v", st)
	}
	if st.Entries > st.Capacity {
		t.Fatalf("cache over capacity: %d > %d", st.Entries, st.Capacity)
	}
	if mine := st.Classes["mine"]; mine.Hits == 0 || mine.HitRatio <= 0 {
		t.Fatalf("mine class never hit: %+v", mine)
	}
}

func TestPropertyCompareMatchesScan(t *testing.T) {
	f := build(t, defaultCfg())
	r := rand.New(rand.NewSource(92))
	windows := []int{0, 1, 2, 3}
	for i := 0; i < 300; i++ {
		sa, ca := drawPoint(r, f, 0)
		sb, cb := drawPoint(r, f, 0)
		diffs, err := f.Compare(windows, sa, ca, sb, cb)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diffs {
			f.mu.RLock()
			slice, _ := f.index.Slice(d.Window)
			wantA, wantB := slice.Diff(sa, ca, sb, cb)
			f.mu.RUnlock()
			if len(d.OnlyA) != len(wantA) || len(d.OnlyB) != len(wantB) {
				t.Fatalf("Compare window %d sizes (%d,%d), scan (%d,%d)",
					d.Window, len(d.OnlyA), len(d.OnlyB), len(wantA), len(wantB))
			}
			for j := range wantA {
				if d.OnlyA[j] != wantA[j] {
					t.Fatalf("Compare window %d onlyA diverges at %d", d.Window, j)
				}
			}
			for j := range wantB {
				if d.OnlyB[j] != wantB[j] {
					t.Fatalf("Compare window %d onlyB diverges at %d", d.Window, j)
				}
			}
		}
	}
	if st := f.CacheStats(); st.Classes["diff"].Hits == 0 {
		t.Fatalf("diff class never hit: %+v", st)
	}
}

// TestPropertyCacheUnderAppend runs cached queries concurrently with
// AppendWindow calls and verifies every answer against the bypassing scan —
// under -race this also proves the cache adds no new data races.
func TestPropertyCacheUnderAppend(t *testing.T) {
	cfg := defaultCfg()
	db := testDB(7, 900, 30)
	windows, err := db.PartitionByCount(6)
	if err != nil {
		t.Fatal(err)
	}
	f := New(db.Dict, cfg)
	if err := f.AppendWindow(windows[0]); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for !t.Failed() {
				select {
				case <-done:
					return
				default:
				}
				w := r.Intn(f.Windows())
				ms, mc := drawPoint(r, f, w)
				verifyPoint(t, f, w, ms, mc)
			}
		}(100 + int64(g))
	}
	for _, w := range windows[1:] {
		if err := f.AppendWindow(w); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	if t.Failed() {
		return
	}
	// After the interleaved appends settle, a full verification sweep over
	// every window must still agree with the bypassing scan.
	r := rand.New(rand.NewSource(93))
	for w := 0; w < f.Windows(); w++ {
		for i := 0; i < 200; i++ {
			ms, mc := drawPoint(r, f, w)
			verifyPoint(t, f, w, ms, mc)
		}
	}
}

// TestCacheDisabled: a negative QueryCacheSize must bypass memoization
// entirely while answering identically.
func TestCacheDisabled(t *testing.T) {
	cfg := defaultCfg()
	cfg.QueryCacheSize = -1
	f := build(t, cfg)
	r := rand.New(rand.NewSource(94))
	for i := 0; i < 50; i++ {
		ms, mc := drawPoint(r, f, 0)
		verifyPoint(t, f, 0, ms, mc)
	}
	if st := f.CacheStats(); st.Enabled || st.Hits+st.Misses != 0 {
		t.Fatalf("disabled cache recorded traffic: %+v", st)
	}
}

// TestCacheInvalidationOnAppend checks the per-window invalidation hook:
// entries for a window index are dropped when that window lands.
func TestCacheInvalidationOnAppend(t *testing.T) {
	c := newQueryCache(64)
	k0 := cacheKey{window: 0, class: classCount, a: cutKey(1, 2)}
	k1 := cacheKey{window: 1, class: classCount, a: cutKey(1, 2)}
	c.Put(k0, 7)
	c.Put(k1, 9)
	c.InvalidateWindow(1)
	if _, ok := c.get(k1); ok {
		t.Fatal("window 1 entry survived invalidation")
	}
	if v, ok := c.get(k0); !ok || v.(int) != 7 {
		t.Fatal("window 0 entry lost by window-1 invalidation")
	}
}

// TestCacheEviction: the LRU bound holds and evictions are counted.
func TestCacheEviction(t *testing.T) {
	c := newQueryCache(1)             // one entry per shard
	capacity := int(c.Stats().Budget) // every entry costs 1
	for i := 0; i < 10*capacity; i++ {
		c.Put(cacheKey{window: int32(i), class: classMine, a: cutKey(i, i)}, i)
	}
	if st := c.Stats(); st.Entries > capacity || st.Evictions == 0 {
		t.Fatalf("cache holds %d entries (cap %d) after %d evictions", st.Entries, capacity, st.Evictions)
	}
}

func TestAppendRules(t *testing.T) {
	f := New(txdb.NewDict(), Config{})
	w := syntheticWindow(0, 1000)
	rs := syntheticRules(50, 1000, 0)
	if err := f.AppendRules(w, rs); err != nil {
		t.Fatal(err)
	}
	if f.Windows() != 1 {
		t.Fatalf("Windows() = %d, want 1", f.Windows())
	}
	n, err := f.Count(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(rs) {
		t.Fatalf("Count = %d, want %d", n, len(rs))
	}
	// Window index mismatch must be rejected, like AppendWindow.
	if err := f.AppendRules(syntheticWindow(5, 10), nil); err == nil {
		t.Fatal("out-of-order AppendRules accepted")
	}
}
