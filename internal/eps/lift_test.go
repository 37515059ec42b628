package eps

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"tara/internal/rules"
)

// A three-measure (support, confidence, lift) request is answered from the
// 2-D slice: lift is a filter on the 2-D stable region's fixed ruleset, so the
// request's box is R × (lo, hi], with R = Region(supp, conf) and (lo, hi] the
// gap around the lift threshold among R's rules. These tests check that
// composition against a linear three-measure filter.

// ndStats builds IDStats with all three standard coordinates meaningful.
func ndStats(r *rand.Rand, n uint32, numRules int) []IDStats {
	out := make([]IDStats, numRules)
	for i := range out {
		xy := uint32(1 + r.Intn(int(n)/2))
		x := xy + uint32(r.Intn(int(n-xy)+1))
		y := xy + uint32(r.Intn(int(n-xy)+1))
		out[i] = IDStats{
			ID:    rules.ID(i),
			Stats: rules.Stats{CountXY: xy, CountX: x, CountY: y, N: n},
		}
	}
	return out
}

func liftOf(rs []IDStats) map[rules.ID]float64 {
	m := make(map[rules.ID]float64, len(rs))
	for _, x := range rs {
		m[x.ID] = x.Stats.Lift()
	}
	return m
}

// liftGap is the lift side of the box for a 2-D answer: lo is the largest
// lift below ml (or 0), hi the smallest at or above it (+Inf when no rule
// reaches ml), and kept the answer's rules with lift >= ml, in answer order.
func liftGap(ids []rules.ID, lift map[rules.ID]float64, ml float64) (lo, hi float64, kept []rules.ID) {
	hi = math.Inf(1)
	for _, id := range ids {
		if l := lift[id]; l < ml {
			lo = max(lo, l)
		} else {
			hi = min(hi, l)
			kept = append(kept, id)
		}
	}
	return lo, hi, kept
}

// linear3 is the reference answer: the sorted ids of the rules meeting all
// three thresholds.
func linear3(rs []IDStats, ms, mc, ml float64) []rules.ID {
	var out []rules.ID
	for _, x := range rs {
		if x.Stats.Support() >= ms && x.Stats.Confidence() >= mc && x.Stats.Lift() >= ml {
			out = append(out, x.ID)
		}
	}
	slices.Sort(out)
	return out
}

func sortedIDs(ids []rules.ID) []rules.ID {
	out := slices.Clone(ids)
	slices.Sort(out)
	return out
}

func TestSliceNDRulesMatchLinearFilter(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20; trial++ {
		n := uint32(20 + r.Intn(60))
		rs := ndStats(r, n, 1+r.Intn(50))
		s, err := BuildSlice(0, n, rs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		lift := liftOf(rs)
		for probe := 0; probe < 15; probe++ {
			ms, mc, ml := r.Float64(), r.Float64(), r.Float64()*3
			_, _, got := liftGap(s.Rules(ms, mc), lift, ml)
			if want := linear3(rs, ms, mc, ml); !slices.Equal(sortedIDs(got), want) {
				t.Fatalf("trial %d: %d rules, want %d (thresholds %g %g %g)", trial, len(got), len(want), ms, mc, ml)
			}
		}
	}
}

func TestSliceNDRegionStability(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	for trial := 0; trial < 10; trial++ {
		n := uint32(30 + r.Intn(40))
		rs := ndStats(r, n, 1+r.Intn(40))
		s, err := BuildSlice(0, n, rs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		lift := liftOf(rs)
		for probe := 0; probe < 10; probe++ {
			ms, mc, ml := r.Float64(), r.Float64(), r.Float64()*2
			if probe%3 == 0 && len(rs) > 0 {
				ml = rs[r.Intn(len(rs))].Stats.Lift() // on a rule's lift
			}
			reg := s.Region(ms, mc)
			lo, hi, kept := liftGap(s.Rules(ms, mc), lift, ml)
			want := linear3(rs, ms, mc, ml)
			if len(kept) != len(want) {
				t.Fatalf("trial %d: box keeps %d rules, linear filter %d", trial, len(kept), len(want))
			}
			if !(lo < ml && ml <= hi) {
				t.Fatalf("trial %d: lift %g outside its interval (%g,%g]", trial, ml, lo, hi)
			}
			// Random points inside the box, and its closed high corner,
			// yield the same rules.
			top := hi
			if math.IsInf(hi, 1) {
				top = lo + 1 // any lift above lo is inside
			}
			for k := 0; k < 6; k++ {
				p := [3]float64{reg.HighSupp, reg.HighConf, top}
				if k > 0 {
					for d, b := range [3][2]float64{{reg.LowSupp, reg.HighSupp}, {reg.LowConf, reg.HighConf}, {lo, top}} {
						p[d] = b[0] + (b[1]-b[0])*(1e-7+r.Float64()*(1-2e-7))
					}
				}
				if got := linear3(rs, p[0], p[1], p[2]); !slices.Equal(got, want) {
					t.Fatalf("trial %d: answer changed inside box at %v: %d vs %d (region %v, lift (%g,%g])",
						trial, p, len(got), len(want), reg, lo, hi)
				}
			}
		}
	}
}

func TestRegionNDBounds(t *testing.T) {
	rs := []IDStats{
		{ID: 1, Stats: rules.Stats{CountXY: 2, CountX: 4, CountY: 5, N: 10}},  // supp .2 conf .5 lift 1
		{ID: 2, Stats: rules.Stats{CountXY: 5, CountX: 5, CountY: 5, N: 10}},  // supp .5 conf 1 lift 2
		{ID: 3, Stats: rules.Stats{CountXY: 5, CountX: 5, CountY: 10, N: 10}}, // supp .5 conf 1 lift 1
	}
	s, err := BuildSlice(3, 10, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lift := liftOf(rs)
	reg := s.Region(0.3, 0.7)
	if reg.Window != 3 || reg.NumRules != 2 {
		t.Fatalf("region = %+v", reg)
	}
	if reg.LowSupp != 0 || reg.HighSupp != 0.5 {
		t.Errorf("support bounds (%g,%g]", reg.LowSupp, reg.HighSupp)
	}
	if reg.LowConf != 0.5 || reg.HighConf != 1 {
		t.Errorf("confidence bounds (%g,%g]", reg.LowConf, reg.HighConf)
	}
	// Rule 1 is outside the 2-D answer, so only rule 3's lift bounds below.
	lo, hi, kept := liftGap(s.Rules(0.3, 0.7), lift, 1.5)
	if lo != 1 || hi != 2 || len(kept) != 1 || kept[0] != 2 {
		t.Errorf("lift bounds (%g,%g] keeping %v, want (1,2] keeping [2]", lo, hi, kept)
	}
	// Above all lift values: the lift interval is unbounded and empty.
	lo, hi, kept = liftGap(s.Rules(0.3, 0.7), lift, 5)
	if lo != 2 || !math.IsInf(hi, 1) || len(kept) != 0 {
		t.Errorf("open lift interval (%g,%g] keeping %v", lo, hi, kept)
	}
}

// TestRegionNDOnGridBoundary checks the box has the same on-cut semantics as
// the 2-D region on every axis: a request exactly at a location's
// coordinates and at a rule's lift lands in the box closed at those values,
// and that rule qualifies.
func TestRegionNDOnGridBoundary(t *testing.T) {
	rs := []IDStats{
		{ID: 0, Stats: rules.Stats{CountXY: 1, CountX: 4, CountY: 3, N: 9}}, // (1/9, 0.25) lift .75
		{ID: 1, Stats: rules.Stats{CountXY: 1, CountX: 2, CountY: 3, N: 9}}, // (1/9, 0.5) lift 1.5
		{ID: 2, Stats: rules.Stats{CountXY: 3, CountX: 4, CountY: 3, N: 9}}, // (3/9, 0.75) lift 2.25
		{ID: 3, Stats: rules.Stats{CountXY: 3, CountX: 4, CountY: 9, N: 9}}, // (3/9, 0.75) lift .75
	}
	s, err := BuildSlice(0, 9, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lift := liftOf(rs)
	// Request exactly at the top location and at rule 2's lift.
	ms, mc, ml := 3.0/9, 0.75, 2.25
	reg := s.Region(ms, mc)
	if reg.Empty || reg.NumRules != 2 {
		t.Fatalf("on-grid request: region %+v, want 2 rules", reg)
	}
	if reg.LowSupp != 0 || reg.HighSupp != 3.0/9 || reg.LowConf != 0.5 || reg.HighConf != 0.75 {
		t.Errorf("region %v, want supp(0,1/3] conf(0.5,0.75]", reg)
	}
	lo, hi, kept := liftGap(s.Rules(ms, mc), lift, ml)
	if lo != 0.75 || hi != 2.25 || len(kept) != 1 || kept[0] != 2 {
		t.Errorf("lift bounds (%g,%g] keeping %v, want (0.75,2.25] keeping [2]", lo, hi, kept)
	}
	// Inclusive qualification at the exact values, exclusive just above.
	if got := linear3(rs, ms, mc, ml); len(got) != 1 {
		t.Errorf("answer at the exact values = %v, want [2]", got)
	}
	if got := linear3(rs, ms, mc, math.Nextafter(ml, 3)); len(got) != 0 {
		t.Errorf("answer just above the lift = %v, want none", got)
	}
	if got := linear3(rs, math.Nextafter(ms, 1), mc, ml); len(got) != 0 {
		t.Errorf("answer just above the support = %v, want none", got)
	}
	// Above every location: empty region capped at the measures' natural
	// max, and no rule bounds the lift.
	reg = s.Region(0.5, 0.9)
	lo, hi, kept = liftGap(s.Rules(0.5, 0.9), lift, 1)
	if !reg.Empty || reg.HighSupp != 1 || reg.HighConf != 1 || lo != 0 || !math.IsInf(hi, 1) || len(kept) != 0 {
		t.Errorf("empty box = %v lift (%g,%g] keeping %v, want Empty with High (1,1,+Inf)", reg, lo, hi, kept)
	}
}

// TestAcceleratedNDMatchScan checks the lift side of the box does not depend
// on which read path produced the 2-D answer: the accelerated Rules,
// AppendRules and Postings paths agree with the reference scan, in order.
func TestAcceleratedNDMatchScan(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	for trial := 0; trial < 30; trial++ {
		n := uint32(20 + r.Intn(120))
		rs := ndStats(r, n, 1+r.Intn(120))
		s, err := BuildSlice(0, n, rs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		lift := liftOf(rs)
		for probe := 0; probe < 30; probe++ {
			ms, mc, ml := r.Float64(), r.Float64(), r.Float64()*3
			if probe%5 == 0 {
				// On-grid probes exercise the boundary-inclusive paths.
				ms = s.supports[r.Intn(len(s.supports))]
				mc = s.confs[r.Intn(len(s.confs))]
				ml = rs[r.Intn(len(rs))].Stats.Lift()
			}
			lo, hi, want := liftGap(s.ScanRules(ms, mc), lift, ml)
			paths := map[string][]rules.ID{
				"Rules":       s.Rules(ms, mc),
				"AppendRules": s.AppendRules(nil, ms, mc),
				"Postings":    s.Postings(ms, mc).IDs(),
			}
			for name, ids := range paths {
				gotLo, gotHi, got := liftGap(ids, lift, ml)
				if gotLo != lo || gotHi != hi || !slices.Equal(got, want) {
					t.Fatalf("trial %d: %s at (%g,%g,%g): lift (%g,%g] %d rules, scan (%g,%g] %d rules",
						trial, name, ms, mc, ml, gotLo, gotHi, len(got), lo, hi, len(want))
				}
			}
		}
	}
}
