package tara

import (
	"math/rand"
	"sort"
	"testing"

	"tara/internal/rules"
)

// rankEvolutionPerRule is the ranking RankEvolution used before it moved onto
// the columnar engine, kept as the differential oracle: the union of the
// per-window qualifying sets, one archive.Trajectory decode per rule, a full
// sort.
func rankEvolutionPerRule(f *Framework, from, to int, minSupp, minConf float64, m EvolutionMeasure, stabilityEps float64, k int) ([]EvolutionSummary, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	seen := map[rules.ID]bool{}
	for w := from; w <= to; w++ {
		slice, err := f.index.Slice(w)
		if err != nil {
			return nil, err
		}
		for _, id := range slice.Rules(minSupp, minConf) {
			seen[id] = true
		}
	}
	out := make([]EvolutionSummary, 0, len(seen))
	for id := range seen {
		tr, err := f.arch.Trajectory(id, from, to)
		if err != nil {
			return nil, err
		}
		r, _ := f.ruleDict.Rule(id)
		cov, stab, sd := tr.Evolution(stabilityEps)
		out = append(out, EvolutionSummary{ID: id, Rule: r, Coverage: cov, Stability: stab, StdDev: sd})
	}
	score := func(s EvolutionSummary) float64 {
		switch m {
		case ByCoverage:
			return s.Coverage
		case ByVolatility:
			return s.StdDev
		}
		return s.Stability
	}
	sort.Slice(out, func(i, j int) bool {
		if a, b := score(out[i]), score(out[j]); a != b {
			return a > b
		}
		return out[i].ID < out[j].ID
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out, nil
}

// TestRankEvolutionMatchesPerRule compares the columnar RankEvolution with
// the per-rule oracle over random draws on a heap and a mapped knowledge
// base: same ids in the same order, and == on every measure.
func TestRankEvolutionMatchesPerRule(t *testing.T) {
	heap, err := Build(testDB(3, 1600, 30), 0, 8, trajCfg())
	if err != nil {
		t.Fatal(err)
	}
	mapped := openMapped(t, saveMapped(t, heap))
	all := heap.RuleDict().Len()
	r := rand.New(rand.NewSource(15))
	nonEmpty := 0
	for i := 0; i < 250; i++ {
		from := r.Intn(heap.Windows())
		to := from + r.Intn(heap.Windows()-from)
		supp := 0.01 + 0.05*r.Float64()
		conf := 0.05 + 0.5*r.Float64()
		m := EvolutionMeasure(r.Intn(3))
		eps := []float64{0.005, 0.01}[r.Intn(2)]
		k := []int{0, 5, 10, all}[r.Intn(4)]
		for name, f := range map[string]*Framework{"heap": heap, "mapped": mapped} {
			want, err := rankEvolutionPerRule(f, from, to, supp, conf, m, eps, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := f.RankEvolution(from, to, supp, conf, m, eps, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s draw %d [%d,%d] supp=%g conf=%g m=%d eps=%g k=%d: %d rows, oracle %d", name, i, from, to, supp, conf, m, eps, k, len(got), len(want))
			}
			for j := range got {
				g, w := got[j], want[j]
				if g.ID != w.ID || g.Rule.Key() != w.Rule.Key() || g.Coverage != w.Coverage || g.Stability != w.Stability || g.StdDev != w.StdDev {
					t.Fatalf("%s draw %d [%d,%d] supp=%g conf=%g m=%d eps=%g k=%d row %d: got %+v, oracle %+v", name, i, from, to, supp, conf, m, eps, k, j, g, w)
				}
			}
			if len(got) > 0 {
				nonEmpty++
			}
		}
	}
	if nonEmpty < 200 {
		t.Fatalf("only %d of 500 comparisons ranked any rule; the draws are too strict to prove anything", nonEmpty)
	}
}

// TestRankEvolutionRejectsBadRange keeps the out-of-range request an error
// now that the range is checked by the columnar snapshot.
func TestRankEvolutionRejectsBadRange(t *testing.T) {
	f := build(t, trajCfg())
	for _, rg := range [][2]int{{-1, 2}, {2, 1}, {0, f.Windows()}} {
		if _, err := f.RankEvolution(rg[0], rg[1], 0.01, 0.05, ByStability, 0.01, 5); err == nil {
			t.Errorf("range [%d,%d] accepted", rg[0], rg[1])
		}
	}
}
