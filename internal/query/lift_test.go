package query

import (
	"math/rand"
	"slices"
	"testing"

	"tara/internal/rules"
	"tara/internal/tara"
)

// liftIDs is the rule-id set of a lift-filtered mining answer.
func liftIDs(t *testing.T, f *tara.Framework, w int, s, c, l float64) []rules.ID {
	t.Helper()
	views, err := f.MineFiltered(w, s, c, l)
	if err != nil {
		t.Fatalf("MineFiltered(%d,%g,%g,%g): %v", w, s, c, l, err)
	}
	ids := make([]rules.ID, len(views))
	for i, v := range views {
		ids[i] = v.ID
	}
	slices.Sort(ids)
	return ids
}

// inside draws a value in the half-open interval (lo, hi], returning hi
// itself when closed is set so the closed end is always probed. Rounding
// can land lo+(hi-lo)*u on lo; ok reports whether the draw is inside.
func inside(r *rand.Rand, lo, hi float64, closed bool) (v float64, ok bool) {
	if closed {
		return hi, true
	}
	v = min(lo+(hi-lo)*(1-r.Float64()), hi)
	return v, v > lo
}

// TestPropertyRecommendLiftBox makes the lift box executable: at every point
// of R × (Low, High] a recommend with a lift filter reports, lift-filtered
// mining returns exactly the request's rule ids, and NumRules counts them.
// Requests include lifts equal to a rule's lift and filters above every rule
// (unbounded High); probes include every closed upper end.
func TestPropertyRecommendLiftBox(t *testing.T) {
	probes := 0
	for seed := int64(1); seed <= 6; seed++ {
		f := buildFrameworkSeed(t, seed)
		genSupp, genConf := f.Config().GenMinSupport, f.Config().GenMinConf
		r := rand.New(rand.NewSource(seed))
		for w := 0; w < f.Windows(); w++ {
			for i := 0; i < 50; i++ {
				s := genSupp + r.Float64()*0.15
				c := genConf + r.Float64()*0.6
				views, err := f.MineFiltered(w, s, c, 0)
				if err != nil {
					t.Fatal(err)
				}
				l := 0.5 + 2*r.Float64()
				if len(views) > 0 && i%3 == 0 {
					l = views[r.Intn(len(views))].Lift()
				} else if i%10 == 0 {
					l = 1000
				}
				res, err := Answer(f, Query{Kind: Recommend, Window: w, MinSupp: s, MinConf: c, MinLift: l})
				if err != nil {
					t.Fatal(err)
				}
				reg := res.(RegionResult)
				want := liftIDs(t, f, w, s, c, l)
				if reg.Lift == nil || reg.NumRules != len(want) || reg.Empty != (len(want) == 0) {
					t.Fatalf("w=%d (%g,%g,%g): %+v, MineFiltered has %d rules", w, s, c, l, reg, len(want))
				}
				liftHigh := reg.Lift.Low + 1
				if reg.Lift.High != nil {
					liftHigh = *reg.Lift.High
				}
				for p := 0; p < 8; p++ {
					ps, ok1 := inside(r, max(reg.LowSupp, genSupp), reg.HighSupp, p&1 != 0)
					pc, ok2 := inside(r, max(reg.LowConf, genConf), reg.HighConf, p&2 != 0)
					pl, ok3 := inside(r, reg.Lift.Low, liftHigh, p&4 != 0)
					if !ok1 || !ok2 || !ok3 {
						continue
					}
					if got := liftIDs(t, f, w, ps, pc, pl); !slices.Equal(got, want) {
						t.Fatalf("w=%d request (%g,%g,%g) box supp(%g,%g] conf(%g,%g] lift(%g,%g]: probe (%g,%g,%g) has %d rules, want %d",
							w, s, c, l, reg.LowSupp, reg.HighSupp, reg.LowConf, reg.HighConf, reg.Lift.Low, liftHigh, ps, pc, pl, len(got), len(want))
					}
					probes++
				}
			}
		}
	}
	if probes < 1000 {
		t.Fatalf("only %d probes landed inside a box", probes)
	}
}
