package tara

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tara/internal/itemset"
	"tara/internal/mining"
	"tara/internal/rules"
	"tara/internal/txdb"
)

// testDB builds a reproducible random evolving database with mild item
// correlations so that rules exist at moderate thresholds.
func testDB(seed int64, nTx, nItems int) *txdb.DB {
	r := rand.New(rand.NewSource(seed))
	db := txdb.NewDB()
	// A few "pattern" item pairs that co-occur often.
	type pair struct{ a, b int }
	patterns := make([]pair, 5)
	for i := range patterns {
		patterns[i] = pair{r.Intn(nItems), r.Intn(nItems)}
	}
	for i := 0; i < nTx; i++ {
		var names []string
		p := patterns[r.Intn(len(patterns))]
		if r.Float64() < 0.6 {
			names = append(names, itemName(p.a), itemName(p.b))
		}
		for j := 0; j < 1+r.Intn(4); j++ {
			names = append(names, itemName(r.Intn(nItems)))
		}
		db.Add(int64(i), names...)
	}
	return db
}

func itemName(i int) string { return string(rune('A'+i/10)) + string(rune('0'+i%10)) }

func build(t *testing.T, cfg Config) *Framework {
	t.Helper()
	db := testDB(1, 600, 30)
	f, err := Build(db, 0, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func defaultCfg() Config {
	return Config{GenMinSupport: 0.01, GenMinConf: 0.05, MaxItemsetLen: 4}
}

func TestBuildBasics(t *testing.T) {
	f := build(t, defaultCfg())
	if f.Windows() != 4 {
		t.Fatalf("Windows = %d, want 4", f.Windows())
	}
	for w := 0; w < 4; w++ {
		info, err := f.Window(w)
		if err != nil {
			t.Fatal(err)
		}
		if info.N == 0 {
			t.Errorf("window %d empty", w)
		}
	}
	if _, err := f.Window(9); err == nil {
		t.Error("out-of-range window accepted")
	}
	if len(f.Timings()) != 4 {
		t.Errorf("Timings = %d entries", len(f.Timings()))
	}
	for _, tm := range f.Timings() {
		if tm.NumRules == 0 {
			t.Errorf("window %d generated no rules; thresholds too high for test data", tm.Window)
		}
		if tm.Total() <= 0 {
			t.Errorf("window %d total time not positive", tm.Window)
		}
	}
}

// mineDirect is the DCTAR-style ground truth: mine the window transactions
// from scratch at the query thresholds.
func mineDirect(t *testing.T, tx []txdb.Transaction, minSupp, minConf float64, maxLen int) map[string]rules.Stats {
	t.Helper()
	res, err := mining.Apriori{}.Mine(tx, mining.Params{
		MinCount: mining.MinCountFor(minSupp, len(tx)),
		MaxLen:   maxLen,
	})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rules.Generate(res, rules.GenParams{
		MinCount: mining.MinCountFor(minSupp, len(tx)),
		MinConf:  minConf,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]rules.Stats{}
	for _, r := range rs {
		out[r.Rule.Key()] = r.Stats
	}
	return out
}

func TestMineMatchesDirectMining(t *testing.T) {
	db := testDB(2, 500, 25)
	cfg := defaultCfg()
	f, err := Build(db, 0, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	windows, err := db.PartitionByCount(3)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 3; w++ {
		for _, q := range []struct{ s, c float64 }{{0.02, 0.1}, {0.05, 0.3}, {0.1, 0.5}} {
			got, err := f.Mine(w, q.s, q.c)
			if err != nil {
				t.Fatal(err)
			}
			want := mineDirect(t, windows[w].Tx, q.s, q.c, cfg.MaxItemsetLen)
			if len(got) != len(want) {
				t.Fatalf("window %d (%g,%g): TARA %d rules, direct %d", w, q.s, q.c, len(got), len(want))
			}
			for _, v := range got {
				st, ok := want[v.Rule.Key()]
				if !ok {
					t.Fatalf("window %d: TARA rule %v not in direct result", w, v.Rule)
				}
				if st != v.Stats {
					t.Fatalf("window %d rule %v: stats %+v vs direct %+v", w, v.Rule, v.Stats, st)
				}
			}
		}
	}
}

func TestMineRejectsBelowGeneration(t *testing.T) {
	f := build(t, defaultCfg())
	if _, err := f.Mine(0, 0.001, 0.5); err == nil {
		t.Error("minsupp below generation threshold accepted")
	}
	if _, err := f.Mine(0, 0.05, 0.01); err == nil {
		t.Error("minconf below generation threshold accepted")
	}
	if _, err := f.Mine(17, 0.05, 0.3); err == nil {
		t.Error("bad window accepted")
	}
}

func TestRuleTrajectories(t *testing.T) {
	f := build(t, defaultCfg())
	trs, err := f.RuleTrajectories(3, 0.05, 0.2, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(trs) == 0 {
		t.Fatal("no trajectories returned")
	}
	for _, tr := range trs {
		if len(tr.Stats) != 3 || len(tr.Present) != 3 {
			t.Fatalf("trajectory shape wrong: %+v", tr)
		}
		for i, w := range tr.Windows {
			st, ok := f.Archive().StatsAt(tr.ID, w)
			if ok != tr.Present[i] {
				t.Errorf("rule %d window %d: present mismatch", tr.ID, w)
			}
			if ok && st != tr.Stats[i] {
				t.Errorf("rule %d window %d: stats mismatch", tr.ID, w)
			}
		}
	}
	if _, err := f.RuleTrajectories(0, 0.05, 0.2, []int{11}); err == nil {
		t.Error("bad trajectory window accepted")
	}
}

func TestCompare(t *testing.T) {
	f := build(t, defaultCfg())
	diffs, err := f.Compare([]int{0, 1, 2, 3}, 0.02, 0.1, 0.06, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 4 {
		t.Fatalf("got %d diffs", len(diffs))
	}
	for _, d := range diffs {
		// Validate against two Mine calls.
		a, err := f.Mine(d.Window, 0.02, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := f.Mine(d.Window, 0.06, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		inA := map[rules.ID]bool{}
		for _, v := range a {
			inA[v.ID] = true
		}
		inB := map[rules.ID]bool{}
		for _, v := range b {
			inB[v.ID] = true
		}
		wantOnlyA := 0
		for id := range inA {
			if !inB[id] {
				wantOnlyA++
			}
		}
		wantOnlyB := 0
		for id := range inB {
			if !inA[id] {
				wantOnlyB++
			}
		}
		if len(d.OnlyA) != wantOnlyA || len(d.OnlyB) != wantOnlyB {
			t.Errorf("window %d: diff (%d,%d), want (%d,%d)", d.Window, len(d.OnlyA), len(d.OnlyB), wantOnlyA, wantOnlyB)
		}
		for _, id := range d.OnlyA {
			if !inA[id] || inB[id] {
				t.Errorf("window %d: rule %d misclassified in OnlyA", d.Window, id)
			}
		}
	}
	// Setting B dominates A (lower thresholds): B-only nonempty, A-only empty.
	diffs, err = f.Compare([]int{0}, 0.06, 0.3, 0.02, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs[0].OnlyA) != 0 {
		t.Error("stricter setting claims exclusive rules")
	}
}

func TestRecommend(t *testing.T) {
	f := build(t, defaultCfg())
	reg, err := f.Recommend(0, 0.05, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	// The ruleset must be constant within the recommended region.
	base, err := f.Mine(0, 0.05, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Empty != (len(base) == 0) {
		t.Fatalf("region empty=%v but %d rules", reg.Empty, len(base))
	}
	probeS := (reg.LowSupp + reg.HighSupp) / 2
	probeC := (reg.LowConf + reg.HighConf) / 2
	if probeS >= f.cfg.GenMinSupport && probeC >= f.cfg.GenMinConf {
		got, err := f.Mine(0, probeS, probeC)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(base) {
			t.Errorf("ruleset changed within recommended region: %d vs %d", len(got), len(base))
		}
	}
}

func TestMineRollUpExactOverPresentWindows(t *testing.T) {
	db := testDB(3, 400, 20)
	cfg := Config{GenMinSupport: 0.01, GenMinConf: 0, MaxItemsetLen: 3}
	f, err := Build(db, 0, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.MineRollUp(0, 3, 0.05, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("roll-up returned no rules")
	}
	// Ground truth: count over all transactions.
	db2 := testDB(3, 400, 20)
	for _, r := range out {
		if r.Stats.Support() < 0.05 || r.Stats.Confidence() < 0.2 {
			t.Errorf("rule %v below thresholds: %+v", r.Rule, r.Stats)
		}
		var xy, x uint32
		union := r.Rule.Items()
		for _, tx := range db2.Tx {
			if itemset.Subset(union, tx.Items) {
				xy++
			}
			if itemset.Subset(r.Rule.Ant, tx.Items) {
				x++
			}
		}
		trueSupp := float64(xy) / float64(db2.Len())
		if r.Present == 4 {
			// Present everywhere: exact.
			if r.Stats.CountXY != xy || r.Stats.CountX != x {
				t.Errorf("rule %v rolled counts (%d,%d), true (%d,%d)", r.Rule, r.Stats.CountXY, r.Stats.CountX, xy, x)
			}
		}
		// Bound always holds: archived support underestimates by at most
		// MaxSupportError.
		if trueSupp-r.Stats.Support() > r.MaxSupportError+1e-12 {
			t.Errorf("rule %v: underestimate %g exceeds bound %g",
				r.Rule, trueSupp-r.Stats.Support(), r.MaxSupportError)
		}
	}
}

func TestRollUpApproximationBound(t *testing.T) {
	// The headline bound experiment: with nonzero generation thresholds,
	// every archived rule's period support underestimates truth by at most
	// the bound. Checked for all rules, not only qualifying ones.
	db := testDB(4, 500, 20)
	cfg := Config{GenMinSupport: 0.03, GenMinConf: 0.1, MaxItemsetLen: 3}
	f, err := Build(db, 0, 5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	db2 := testDB(4, 500, 20)
	var checked int
	for _, id := range f.Archive().Rules() {
		r, _ := f.RuleDict().Rule(id)
		st, _, err := f.Archive().RollUp(id, 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		var xy uint32
		union := r.Items()
		for _, tx := range db2.Tx {
			if itemset.Subset(union, tx.Items) {
				xy++
			}
		}
		trueSupp := float64(xy) / float64(db2.Len())
		bound := f.rollUpErrorBound(id, 0, 4, uint32(db2.Len()))
		if trueSupp-st.Support() > bound+1e-12 {
			t.Errorf("rule %v: true %g archived %g bound %g", r, trueSupp, st.Support(), bound)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no rules archived")
	}
}

func TestDrillDown(t *testing.T) {
	f := build(t, defaultCfg())
	views, err := f.Mine(0, 0.05, 0.2)
	if err != nil || len(views) == 0 {
		t.Fatalf("Mine: %v (%d rules)", err, len(views))
	}
	id := views[0].ID
	rows, err := f.DrillDown(id, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("DrillDown rows = %d", len(rows))
	}
	if !rows[0].Present || rows[0].Stats != views[0].Stats {
		t.Errorf("window 0 stats mismatch: %+v vs %+v", rows[0].Stats, views[0].Stats)
	}
	if _, err := f.DrillDown(id, 2, 1); err == nil {
		t.Error("inverted drill-down range accepted")
	}
	if _, err := f.DrillDown(rules.ID(1<<30), 0, 3); err == nil {
		t.Error("unknown rule accepted")
	}
}

func TestRulesAbout(t *testing.T) {
	db := testDB(5, 500, 25)
	cfg := defaultCfg()
	cfg.ContentIndex = true
	f, err := Build(db, 0, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	all, err := f.Mine(0, 0.02, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Pick an item that occurs in some rule.
	var name string
	for _, v := range all {
		name = f.ItemDict().Name(v.Rule.Items()[0])
		break
	}
	got, err := f.RulesAbout(0, 0.02, 0.1, []string{name})
	if err != nil {
		t.Fatal(err)
	}
	item, _ := f.ItemDict().Lookup(name)
	want := 0
	for _, v := range all {
		if v.Rule.Items().Contains(item) {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("RulesAbout(%q) = %d rules, want %d", name, len(got), want)
	}
	for _, v := range got {
		if !v.Rule.Items().Contains(item) {
			t.Errorf("rule %v does not mention %q", v.Rule, name)
		}
	}
	// Unknown item name: empty result, no error.
	none, err := f.RulesAbout(0, 0.02, 0.1, []string{"no-such-item"})
	if err != nil || none != nil {
		t.Errorf("unknown item: %v, %v", none, err)
	}
}

func TestRulesAboutRequiresContentIndex(t *testing.T) {
	f := build(t, defaultCfg())
	if _, err := f.RulesAbout(0, 0.05, 0.2, []string{"A0"}); err == nil {
		t.Error("content query without index accepted")
	}
}

func TestRankEvolution(t *testing.T) {
	f := build(t, defaultCfg())
	for _, m := range []EvolutionMeasure{ByStability, ByCoverage, ByVolatility} {
		out, err := f.RankEvolution(0, 3, 0.05, 0.2, m, 0.01, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) == 0 {
			t.Fatal("no evolution summaries")
		}
		if len(out) > 10 {
			t.Errorf("topK not applied: %d", len(out))
		}
		for i := 1; i < len(out); i++ {
			var prev, cur float64
			switch m {
			case ByCoverage:
				prev, cur = out[i-1].Coverage, out[i].Coverage
			case ByVolatility:
				prev, cur = out[i-1].StdDev, out[i].StdDev
			default:
				prev, cur = out[i-1].Stability, out[i].Stability
			}
			if cur > prev {
				t.Errorf("measure %d: order violated at %d: %g > %g", m, i, cur, prev)
			}
		}
	}
}

func TestWindowRange(t *testing.T) {
	f := build(t, defaultCfg())
	w0, _ := f.Window(0)
	w3, _ := f.Window(3)
	from, to, err := f.WindowRange(txdb.Period{Start: w0.Period.Start, End: w3.Period.End})
	if err != nil || from != 0 || to != 3 {
		t.Errorf("WindowRange = (%d,%d,%v)", from, to, err)
	}
	from, to, err = f.WindowRange(w3.Period)
	if err != nil || from != 3 || to != 3 {
		t.Errorf("WindowRange single = (%d,%d,%v)", from, to, err)
	}
	if _, _, err := f.WindowRange(txdb.Period{Start: 1 << 40, End: 1<<40 + 1}); err == nil {
		t.Error("disjoint period accepted")
	}
}

func TestAppendWindowIncrementalEqualsBatch(t *testing.T) {
	db1 := testDB(6, 600, 25)
	cfg := defaultCfg()
	batch, err := Build(db1, 0, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}

	db2 := testDB(6, 600, 25)
	windows, err := db2.PartitionByCount(4)
	if err != nil {
		t.Fatal(err)
	}
	inc := New(db2.Dict, cfg)
	for _, w := range windows {
		if err := inc.AppendWindow(w); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < 4; w++ {
		a, err := batch.Mine(w, 0.05, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := inc.Mine(w, 0.05, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("window %d: batch %d rules, incremental %d", w, len(a), len(b))
		}
		bk := map[string]rules.Stats{}
		for _, v := range b {
			bk[v.Rule.Key()] = v.Stats
		}
		for _, v := range a {
			if st, ok := bk[v.Rule.Key()]; !ok || st != v.Stats {
				t.Fatalf("window %d: rule %v differs between batch and incremental", w, v.Rule)
			}
		}
	}
}

func TestAppendWindowOutOfOrder(t *testing.T) {
	db := testDB(7, 100, 10)
	windows, err := db.PartitionByCount(2)
	if err != nil {
		t.Fatal(err)
	}
	f := New(db.Dict, defaultCfg())
	if err := f.AppendWindow(windows[1]); err == nil {
		t.Error("out-of-order window accepted")
	}
}

func TestParallelBuildMatchesSequential(t *testing.T) {
	cfgSeq := defaultCfg()
	cfgPar := defaultCfg()
	cfgPar.Parallelism = 4
	db1 := testDB(8, 800, 25)
	db2 := testDB(8, 800, 25)
	seq, err := Build(db1, 0, 6, cfgSeq)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Build(db2, 0, 6, cfgPar)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 6; w++ {
		a, _ := seq.Mine(w, 0.05, 0.2)
		b, _ := par.Mine(w, 0.05, 0.2)
		if len(a) != len(b) {
			t.Fatalf("window %d: sequential %d rules, parallel %d", w, len(a), len(b))
		}
	}
}

func TestMinersProduceSameFramework(t *testing.T) {
	for _, m := range mining.Miners() {
		cfg := defaultCfg()
		cfg.Miner = m
		db := testDB(9, 300, 15)
		f, err := Build(db, 0, 2, cfg)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		got, err := f.Mine(0, 0.05, 0.2)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if len(got) == 0 {
			t.Fatalf("%s: no rules", m.Name())
		}
	}
}

func TestBuildByTimeWindows(t *testing.T) {
	db := testDB(10, 400, 20) // timestamps 0..399
	f, err := Build(db, 100, 0, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	if f.Windows() != 4 {
		t.Fatalf("Windows = %d, want 4", f.Windows())
	}
	info, _ := f.Window(1)
	if info.Period.Start != 100 || info.Period.End != 199 {
		t.Errorf("window 1 period %v", info.Period)
	}
}

func TestConcurrentQueries(t *testing.T) {
	cfg := defaultCfg()
	cfg.ContentIndex = true
	f := build(t, cfg)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				w := (g + i) % f.Windows()
				if _, err := f.Mine(w, 0.05, 0.2); err != nil {
					errs <- err
					return
				}
				if _, err := f.Recommend(w, 0.05, 0.2); err != nil {
					errs <- err
					return
				}
				if _, err := f.MineRollUp(0, f.Windows()-1, 0.05, 0.2); err != nil {
					errs <- err
					return
				}
				if _, err := f.Compare([]int{0, w}, 0.05, 0.2, 0.1, 0.4); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentAppendAndQueries interleaves incremental knowledge-base
// growth with the full online query mix on one Framework. Run under -race
// this locks in the appends-vs-queries synchronization: every query sees the
// knowledge base before or after a whole window lands, never mid-append.
func TestConcurrentAppendAndQueries(t *testing.T) {
	cfg := defaultCfg()
	cfg.ContentIndex = true
	db := testDB(21, 320, 18)
	windows, err := db.PartitionByCount(8)
	if err != nil {
		t.Fatal(err)
	}
	f := New(db.Dict, cfg)
	// Seed two windows so readers always have something to query.
	for _, w := range windows[:2] {
		if err := f.AppendWindow(w); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}

	// Writer: absorb the remaining windows one by one.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, w := range windows[2:] {
			if err := f.AppendWindow(w); err != nil {
				fail(err)
				return
			}
		}
	}()

	// Readers: hammer the query classes against whatever prefix of the
	// knowledge base exists at the moment of each request.
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				n := f.Windows() // grows concurrently; snapshot per iteration
				w := (g + i) % n
				if _, err := f.Mine(w, 0.1, 0.3); err != nil {
					fail(err)
					return
				}
				if _, err := f.Recommend(w, 0.1, 0.3); err != nil {
					fail(err)
					return
				}
				if _, err := f.MineRollUp(0, n-1, 0.15, 0.3); err != nil {
					fail(err)
					return
				}
				if _, err := f.RuleTrajectories(w, 0.15, 0.3, []int{0, w}); err != nil {
					fail(err)
					return
				}
				if _, err := f.Compare([]int{0, w}, 0.1, 0.3, 0.15, 0.4); err != nil {
					fail(err)
					return
				}
				if _, err := f.RulesAbout(w, 0.1, 0.3, []string{itemName(1)}); err != nil {
					fail(err)
					return
				}
				if s := f.Summarize(); s.Windows < 2 {
					fail(fmt.Errorf("summary lost windows: %d", s.Windows))
					return
				}
				// Snapshot the knowledge base every few iterations; SaveMapped
				// is the heaviest reader.
				if i%4 == 0 {
					if err := f.SaveMapped(discard{}); err != nil {
						fail(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if f.Windows() != len(windows) {
		t.Fatalf("Windows = %d after concurrent appends, want %d", f.Windows(), len(windows))
	}

	// The interleaving must not have perturbed the knowledge base: answers
	// match a framework built from the same data in one batch.
	db2 := testDB(21, 320, 18)
	batch, err := Build(db2, 0, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < len(windows); w++ {
		a, err := f.Mine(w, 0.1, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := batch.Mine(w, 0.1, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("window %d: concurrent-append framework has %d rules, batch %d", w, len(a), len(b))
		}
	}
}

// discard is an io.Writer sink for exercising SaveMapped under concurrency.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func TestMineMergedMatchesMine(t *testing.T) {
	cfg := defaultCfg()
	cfg.ContentIndex = true
	f := build(t, cfg)
	for w := 0; w < f.Windows(); w++ {
		plain, err := f.Mine(w, 0.05, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := f.MineMerged(w, 0.05, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		if len(plain) != len(merged) {
			t.Fatalf("window %d: plain %d, merged %d rules", w, len(plain), len(merged))
		}
		seen := map[rules.ID]rules.Stats{}
		for _, v := range merged {
			seen[v.ID] = v.Stats
		}
		for _, v := range plain {
			if st, ok := seen[v.ID]; !ok || st != v.Stats {
				t.Fatalf("window %d: rule %d differs between collection paths", w, v.ID)
			}
		}
	}
}

func TestMineMergedRequiresContentIndex(t *testing.T) {
	f := build(t, defaultCfg())
	if _, err := f.MineMerged(0, 0.05, 0.2); err == nil {
		t.Error("MineMerged without content index accepted")
	}
}

func TestSummarize(t *testing.T) {
	f := build(t, defaultCfg())
	s := f.Summarize()
	if s.Windows != 4 || s.Rules == 0 || s.Items == 0 {
		t.Fatalf("Summary = %+v", s)
	}
	if len(s.PerWindow) != 4 {
		t.Fatalf("PerWindow = %d entries", len(s.PerWindow))
	}
	totalRules := 0
	for _, w := range s.PerWindow {
		if w.N == 0 || w.Rules == 0 || w.Locations == 0 {
			t.Errorf("window %d summary empty: %+v", w.Window, w)
		}
		if w.Locations > w.Rules {
			t.Errorf("window %d: more locations than rules", w.Window)
		}
		totalRules += w.Rules
	}
	if totalRules != s.ArchiveEntries {
		t.Errorf("per-window rules %d != archive entries %d", totalRules, s.ArchiveEntries)
	}
	if s.ArchiveBytes <= 0 || s.ArchiveBytes >= s.UncompressedByte {
		t.Errorf("archive bytes %d vs uncompressed %d", s.ArchiveBytes, s.UncompressedByte)
	}
}

func TestRollUpSliceMatchesMineRollUp(t *testing.T) {
	f := build(t, defaultCfg())
	slice, err := f.RollUpSlice(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.MineRollUp(0, 3, 0.05, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	got := slice.Rules(0.05, 0.2)
	if len(got) != len(want) {
		t.Fatalf("slice %d rules, MineRollUp %d", len(got), len(want))
	}
	wantIDs := map[rules.ID]bool{}
	for _, r := range want {
		wantIDs[r.ID] = true
	}
	for _, id := range got {
		if !wantIDs[id] {
			t.Fatalf("slice produced unexpected rule %d", id)
		}
	}
}

func TestRecommendRollUpStable(t *testing.T) {
	f := build(t, defaultCfg())
	reg, err := f.RecommendRollUp(0, 3, 0.05, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	base, err := f.MineRollUp(0, 3, 0.05, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Empty != (len(base) == 0) {
		t.Fatalf("region empty=%v but %d rules", reg.Empty, len(base))
	}
	if !reg.Empty && reg.NumRules != len(base) {
		t.Errorf("region rules %d, MineRollUp %d", reg.NumRules, len(base))
	}
	// Probe inside the region: identical answer.
	probeS := (reg.LowSupp + reg.HighSupp) / 2
	probeC := (reg.LowConf + reg.HighConf) / 2
	if probeS >= f.cfg.GenMinSupport && probeC >= f.cfg.GenMinConf {
		got, err := f.MineRollUp(0, 3, probeS, probeC)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(base) {
			t.Errorf("roll-up answer changed inside recommended region: %d vs %d", len(got), len(base))
		}
	}
	if _, err := f.RollUpSlice(2, 1); err == nil {
		t.Error("inverted roll-up slice range accepted")
	}
}

func TestMineFiltered(t *testing.T) {
	f := build(t, defaultCfg())
	all, err := f.MineFiltered(0, 0.05, 0.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := f.Mine(0, 0.05, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(plain) {
		t.Fatalf("lift<=0 should not filter: %d vs %d", len(all), len(plain))
	}
	// Pick a threshold strictly between the minimum and maximum observed
	// lift so the filter provably removes some rules and keeps others.
	lo, hi := plain[0].Lift(), plain[0].Lift()
	for _, v := range plain {
		if l := v.Lift(); l < lo {
			lo = l
		} else if l > hi {
			hi = l
		}
	}
	if lo == hi {
		t.Skip("all rules share one lift value in this window")
	}
	threshold := (lo + hi) / 2
	lifted, err := f.MineFiltered(0, 0.05, 0.2, threshold)
	if err != nil {
		t.Fatal(err)
	}
	if len(lifted) == 0 || len(lifted) >= len(plain) {
		t.Fatalf("lift filter at %g kept %d of %d", threshold, len(lifted), len(plain))
	}
	for _, v := range lifted {
		if v.Lift() < threshold {
			t.Errorf("rule %v lift %g below threshold", v.Rule, v.Lift())
		}
	}
}

// TestRecommendND checks a three-measure (support, confidence, lift) request
// at the framework level. Lift is a filter on the 2-D stable region: across
// R × (lo, hi], with R from Recommend and (lo, hi] the gap around the lift
// threshold among R's rules, lift-filtered mining returns the same rules.
func TestRecommendND(t *testing.T) {
	f := build(t, defaultCfg())
	const s, c = 0.05, 0.2
	reg, err := f.Recommend(0, s, c)
	if err != nil {
		t.Fatal(err)
	}
	all, err := f.MineFiltered(0, s, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if reg.NumRules != len(all) {
		t.Fatalf("region rules %d, unfiltered mine %d", reg.NumRules, len(all))
	}
	// The lift threshold is the median rule's own lift: on the closed end.
	lifts := make([]float64, len(all))
	for i, v := range all {
		lifts[i] = v.Lift()
	}
	slices.Sort(lifts)
	l := lifts[len(lifts)/2]
	lo, hi, n := 0.0, math.Inf(1), 0
	for _, v := range all {
		if x := v.Lift(); x < l {
			lo = max(lo, x)
		} else {
			n++
			hi = min(hi, x)
		}
	}
	liftIDs := func(s, c, l float64) []rules.ID {
		t.Helper()
		views, err := f.MineFiltered(0, s, c, l)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]rules.ID, len(views))
		for i, v := range views {
			ids[i] = v.ID
		}
		slices.Sort(ids)
		return ids
	}
	base := liftIDs(s, c, l)
	if len(base) != n || n == 0 || n == len(all) {
		t.Fatalf("lift filter keeps %d of %d rules, gap count %d; want a proper subset", len(base), len(all), n)
	}
	// Probe the box's closed high corner and its centre; points below the
	// generation thresholds are outside what the framework answers.
	top := hi
	if math.IsInf(hi, 1) {
		top = lo + 1
	}
	probes := [][3]float64{
		{reg.HighSupp, reg.HighConf, top},
		{(reg.LowSupp + reg.HighSupp) / 2, (reg.LowConf + reg.HighConf) / 2, (lo + top) / 2},
		{s, c, math.Nextafter(lo, math.Inf(1))},
	}
	for _, p := range probes {
		if p[0] < f.cfg.GenMinSupport || p[1] < f.cfg.GenMinConf {
			continue
		}
		if got := liftIDs(p[0], p[1], p[2]); !slices.Equal(got, base) {
			t.Errorf("answer changed inside box at %v: %d rules vs %d", p, len(got), len(base))
		}
	}
	// Just above the closed lift end the answer loses a rule.
	if !math.IsInf(hi, 1) {
		if got := liftIDs(s, c, math.Nextafter(hi, math.Inf(1))); len(got) >= n {
			t.Errorf("lift just above hi=%g kept %d rules, want fewer than %d", hi, len(got), n)
		}
	}
	if _, err := f.Recommend(99, s, c); err == nil {
		t.Error("bad window accepted")
	}
}

func TestTrajectoryAccessor(t *testing.T) {
	f := build(t, defaultCfg())
	views, err := f.Mine(0, 0.05, 0.2)
	if err != nil || len(views) == 0 {
		t.Fatalf("Mine: %v", err)
	}
	tr, err := f.Trajectory(views[0].ID, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Coverage() <= 0 {
		t.Errorf("Coverage = %g", tr.Coverage())
	}
	if _, err := f.Trajectory(views[0].ID, 0, 99); err == nil {
		t.Error("bad trajectory range accepted")
	}
	if f.Index().Windows() != f.Windows() {
		t.Errorf("Index().Windows() = %d", f.Index().Windows())
	}
}

// failingMiner injects mining failures to exercise error propagation. Miners
// run from parallel Build workers, so the countdown must be atomic.
type failingMiner struct{ after atomic.Int64 }

func newFailingMiner(after int64) *failingMiner {
	m := &failingMiner{}
	m.after.Store(after)
	return m
}

func (m *failingMiner) Name() string { return "failing" }

func (m *failingMiner) Mine(tx []txdb.Transaction, p mining.Params) (*mining.Result, error) {
	if m.after.Add(-1) < 0 {
		return nil, errInjected
	}
	return mining.Eclat{}.Mine(tx, p)
}

var errInjected = fmt.Errorf("injected mining failure")

func TestBuildPropagatesMinerFailure(t *testing.T) {
	db := testDB(20, 200, 10)
	cfg := defaultCfg()
	cfg.Miner = newFailingMiner(0)
	if _, err := Build(db, 0, 2, cfg); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("Build error = %v, want injected failure", err)
	}
	// Failure in a later window, with parallel workers: still surfaces.
	db2 := testDB(20, 200, 10)
	cfg.Miner = newFailingMiner(1)
	cfg.Parallelism = 4
	if _, err := Build(db2, 0, 3, cfg); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("parallel Build error = %v, want injected failure", err)
	}
}

func TestBuildPropagatesPartitionErrors(t *testing.T) {
	db := testDB(21, 50, 5)
	if _, err := Build(db, -5, 0, defaultCfg()); err == nil {
		t.Error("negative window size with zero batches accepted")
	}
	// Degenerate partitions surface txdb's descriptive errors.
	if _, err := Build(db, 0, db.Len()+1, defaultCfg()); err == nil || !strings.Contains(err.Error(), "exceed") {
		t.Errorf("more batches than transactions: err = %v, want txdb error", err)
	}
	p, _ := db.TimeRange()
	if _, err := Build(db, p.End-p.Start+2, 0, defaultCfg()); err == nil || !strings.Contains(err.Error(), "timestamp span") {
		t.Errorf("oversized window: err = %v, want txdb error", err)
	}
	empty := txdb.NewDB()
	if _, err := Build(empty, 0, 3, defaultCfg()); err == nil || !strings.Contains(err.Error(), "empty database") {
		t.Errorf("empty database: err = %v, want txdb error", err)
	}
}

func TestAppendWindowAfterFailureLeavesStateConsistent(t *testing.T) {
	db := testDB(22, 300, 10)
	windows, err := db.PartitionByCount(3)
	if err != nil {
		t.Fatal(err)
	}
	fm := newFailingMiner(1)
	cfg := defaultCfg()
	cfg.Miner = fm
	f := New(db.Dict, cfg)
	if err := f.AppendWindow(windows[0]); err != nil {
		t.Fatal(err)
	}
	if err := f.AppendWindow(windows[1]); err == nil {
		t.Fatal("second append should fail")
	}
	// The knowledge base still answers for the committed window, and the
	// failed window can be retried once the fault clears.
	if _, err := f.Mine(0, 0.05, 0.2); err != nil {
		t.Fatalf("Mine after failed append: %v", err)
	}
	fm.after.Store(10)
	if err := f.AppendWindow(windows[1]); err != nil {
		t.Fatalf("retry append: %v", err)
	}
	if f.Windows() != 2 {
		t.Errorf("Windows = %d after retry", f.Windows())
	}
}
