package eps

import (
	"fmt"
	"math/rand"
	"testing"

	"tara/internal/rules"
)

// Differential tests for the lookup acceleration: the skip-structure paths
// must agree exactly with the retained reference scans, and canonicalization
// must be lossless (Lemma 4).

func TestAcceleratedRulesMatchScan(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		n := uint32(20 + r.Intn(200))
		rs := randomIDStats(r, n, 1+r.Intn(150))
		s, err := BuildSlice(0, n, rs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 40; probe++ {
			ms, mc := r.Float64(), r.Float64()
			if probe%5 == 0 && len(s.supports) > 0 {
				// On-grid probes exercise the boundary-inclusive paths.
				ms = s.supports[r.Intn(len(s.supports))]
				mc = s.confs[r.Intn(len(s.confs))]
			}
			got, want := s.Rules(ms, mc), s.ScanRules(ms, mc)
			if len(got) != len(want) {
				t.Fatalf("trial %d: Rules(%g,%g)=%d ids, scan %d", trial, ms, mc, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d: Rules(%g,%g)[%d]=%d, scan %d (order must match)", trial, ms, mc, i, got[i], want[i])
				}
			}
			if c := s.Count(ms, mc); c != len(want) {
				t.Fatalf("trial %d: Count(%g,%g)=%d, want %d", trial, ms, mc, c, len(want))
			}
		}
	}
}

func TestCutIndexCanonicalization(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	for trial := 0; trial < 25; trial++ {
		n := uint32(20 + r.Intn(100))
		rs := randomIDStats(r, n, 1+r.Intn(80))
		s, err := BuildSlice(0, n, rs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Any two request points with the same cut index must yield the same
		// answer; a point and its cut location must, too.
		type probe struct{ ms, mc float64 }
		byCut := map[[2]int]probe{}
		for i := 0; i < 60; i++ {
			ms, mc := r.Float64(), r.Float64()
			si, ci := s.CutIndex(ms, mc)
			key := [2]int{si, ci}
			if prev, ok := byCut[key]; ok {
				a, b := s.Rules(ms, mc), s.Rules(prev.ms, prev.mc)
				if len(a) != len(b) {
					t.Fatalf("cut (%d,%d): (%g,%g) gives %d rules, (%g,%g) gives %d",
						si, ci, ms, mc, len(a), prev.ms, prev.mc, len(b))
				}
				for j := range a {
					if a[j] != b[j] {
						t.Fatalf("cut (%d,%d): rulesets diverge at %d", si, ci, j)
					}
				}
			} else {
				byCut[key] = probe{ms, mc}
			}
			if si < len(s.supports) && ci < len(s.confs) {
				cut := s.Rules(s.supports[si], s.confs[ci])
				if len(cut) != len(s.Rules(ms, mc)) {
					t.Fatalf("request (%g,%g) disagrees with its cut location (%g,%g)",
						ms, mc, s.supports[si], s.confs[ci])
				}
			}
		}
	}
}

func TestAcceleratedEmptySlice(t *testing.T) {
	s, err := BuildSlice(0, 10, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Rules(0.1, 0.1); got != nil {
		t.Fatalf("empty slice Rules = %v, want nil", got)
	}
	if got := s.Count(0.1, 0.1); got != 0 {
		t.Fatalf("empty slice Count = %d, want 0", got)
	}
	if si, ci := s.CutIndex(0.1, 0.1); si != 0 || ci != 0 {
		t.Fatalf("empty slice CutIndex = (%d,%d), want (0,0)", si, ci)
	}
}

// mergedFixture builds a content-indexed slice whose rules all involve a few
// shared items, so the RulesMerged posting-list merge sees real duplication.
func mergedFixture(b *testing.B, numRules int) *Slice {
	dict := rules.NewDict()
	rs := make([]IDStats, numRules)
	n := uint32(4 * numRules)
	for i := range rs {
		// Two private items plus one of four shared items per rule.
		rl := rules.Rule{
			Ant:  []uint32{uint32(10 + 3*i), uint32(11 + 3*i)},
			Cons: []uint32{uint32(i % 4)},
		}
		id := dict.Add(rl)
		xy := uint32(1 + i%64)
		rs[i] = IDStats{ID: id, Stats: rules.Stats{CountXY: xy, CountX: xy + uint32(i%128), N: n}}
	}
	s, err := BuildSlice(0, n, rs, Options{ContentIndex: true, Dict: dict})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkRulesMergedLinear demonstrates that the RulesMerged dedup scales
// linearly in the number of qualifying rules: doubling the slice size should
// roughly double ns/op, not quadruple it.
func BenchmarkRulesMergedLinear(b *testing.B) {
	for _, size := range []int{1000, 2000, 4000, 8000} {
		s := mergedFixture(b, size)
		b.Run(fmt.Sprintf("rules=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ids, err := s.RulesMerged(0, 0)
				if err != nil {
					b.Fatal(err)
				}
				if len(ids) != size {
					b.Fatalf("got %d ids, want %d", len(ids), size)
				}
			}
		})
	}
}
