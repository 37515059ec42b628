package eps

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"tara/internal/itemset"
	"tara/internal/rules"
)

// fixedSlice builds the running example of Table 1 / Figure 5 of the paper:
// window T2 with rules R1..R6 at their published (supp, conf) locations.
func fixedSlice(t *testing.T, opts Options) (*Slice, *rules.Dict) {
	t.Helper()
	d := rules.NewDict()
	// Items: a=0 b=1 c=2. N = 9 transactions; counts chosen to reproduce
	// the paper's supports and confidences exactly where possible.
	mk := func(ant, cons itemset.Set, countXY, countX uint32) IDStats {
		id := d.Add(rules.Rule{Ant: ant, Cons: cons})
		return IDStats{ID: id, Stats: rules.Stats{CountXY: countXY, CountX: countX, N: 9}}
	}
	rs := []IDStats{
		mk(itemset.New(0), itemset.New(1), 1, 4), // R1: a->b (0.11, 0.25)
		mk(itemset.New(1), itemset.New(0), 1, 2), // R2: b->a (0.11, 0.5)
		mk(itemset.New(0), itemset.New(2), 3, 4), // R3: a->c (0.33, 0.75)
		mk(itemset.New(2), itemset.New(0), 3, 4), // R4: c->a (0.33, 0.75)
		mk(itemset.New(2), itemset.New(1), 1, 4), // R5: c->b (0.11, 0.25)
		mk(itemset.New(1), itemset.New(2), 1, 2), // R6: b->c (0.11, 0.5)
	}
	if opts.ContentIndex {
		opts.Dict = d
	}
	s, err := BuildSlice(2, 9, rs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, d
}

func TestBuildSliceGroupsLocations(t *testing.T) {
	s, _ := fixedSlice(t, Options{})
	// Locations: (0.11,0.25)x{R1,R5}, (0.11,0.5)x{R2,R6}, (0.33,0.75)x{R3,R4}.
	if got := s.NumLocations(); got != 3 {
		t.Fatalf("NumLocations = %d, want 3", got)
	}
	if got := s.NumRuleRefs(); got != 6 {
		t.Fatalf("NumRuleRefs = %d, want 6 (each rule stored once)", got)
	}
}

func TestSliceRulesQuadrant(t *testing.T) {
	s, _ := fixedSlice(t, Options{})
	cases := []struct {
		supp, conf float64
		want       int
	}{
		{0, 0, 6},
		{0.2, 0, 2},     // only R3, R4
		{0, 0.4, 4},     // R2, R6, R3, R4
		{0.2, 0.6, 2},   // R3, R4
		{0.5, 0, 0},     // nothing that frequent
		{0, 0.8, 0},     // nothing that confident
		{0.33, 0.75, 2}, // exactly at the top location
	}
	for _, c := range cases {
		got := s.Rules(c.supp, c.conf)
		if len(got) != c.want {
			t.Errorf("Rules(%g, %g) = %v (%d), want %d", c.supp, c.conf, got, len(got), c.want)
		}
		if n := s.Count(c.supp, c.conf); n != len(got) {
			t.Errorf("Count(%g,%g) = %d != len(Rules) %d", c.supp, c.conf, n, len(got))
		}
	}
}

func TestSliceRegionPaperExample(t *testing.T) {
	s, _ := fixedSlice(t, Options{})
	// A request inside the paper's S3-like region: between the two lower
	// locations and the top one. Output must be {R3, R4} anywhere inside.
	r := s.Region(0.2, 0.6)
	if r.Empty {
		t.Fatal("region unexpectedly empty")
	}
	if r.NumRules != 2 {
		t.Errorf("NumRules = %d, want 2", r.NumRules)
	}
	if r.CutSupp != 3.0/9 || r.CutConf != 0.75 {
		t.Errorf("cut = (%g, %g), want (%g, 0.75)", r.CutSupp, r.CutConf, 3.0/9)
	}
	// Maximal region: with minconf held above 0.5 the low-support locations
	// (conf 0.25 and 0.5) can never qualify, so the support bound extends
	// all the way to 0; confidence is pinned by the 0.5-conf locations.
	if r.LowSupp != 0 || r.HighSupp != 3.0/9 {
		t.Errorf("supp bounds (%g, %g], want (0, %g]", r.LowSupp, r.HighSupp, 3.0/9)
	}
	if r.LowConf != 0.5 || r.HighConf != 0.75 {
		t.Errorf("conf bounds (%g, %g], want (0.5, 0.75]", r.LowConf, r.HighConf)
	}
}

func TestSliceRegionEmpty(t *testing.T) {
	s, _ := fixedSlice(t, Options{})
	r := s.Region(0.9, 0.9)
	if !r.Empty {
		t.Fatal("expected empty region above all locations")
	}
	if r.NumRules != 0 {
		t.Errorf("NumRules = %d", r.NumRules)
	}
}

func TestSliceRegionInvariance(t *testing.T) {
	s, _ := fixedSlice(t, Options{})
	r := s.Region(0.2, 0.6)
	base := s.Rules(0.2, 0.6)
	// Sample points strictly inside the region: identical ruleset.
	for _, supp := range []float64{r.LowSupp + 1e-9, (r.LowSupp + r.HighSupp) / 2, r.HighSupp} {
		for _, conf := range []float64{r.LowConf + 1e-9, (r.LowConf + r.HighConf) / 2, r.HighConf} {
			got := s.Rules(supp, conf)
			if len(got) != len(base) {
				t.Errorf("ruleset changed inside region at (%g, %g): %d vs %d", supp, conf, len(got), len(base))
			}
		}
	}
	// Crossing a bound changes the set: dropping minconf to LowConf (0.5)
	// admits the conf-0.5 locations; pushing minsupp above HighSupp drops
	// the cut location's rules.
	if got := s.Rules(r.LowSupp+1e-9, r.LowConf); len(got) == len(base) {
		t.Error("ruleset unchanged at LowConf boundary")
	}
	if got := s.Rules(r.HighSupp+1e-9, r.HighConf); len(got) == len(base) {
		t.Error("ruleset unchanged above HighSupp")
	}
}

func TestSliceDiff(t *testing.T) {
	s, _ := fixedSlice(t, Options{})
	onlyA, onlyB := s.Diff(0, 0.4, 0.2, 0.6)
	// A = {R2,R6,R3,R4}; B = {R3,R4}. onlyA = {R2,R6}, onlyB = {}.
	if len(onlyA) != 2 || len(onlyB) != 0 {
		t.Errorf("Diff = %v / %v", onlyA, onlyB)
	}
	// Symmetric call swaps the sides.
	swapA, swapB := s.Diff(0.2, 0.6, 0, 0.4)
	if len(swapA) != 0 || len(swapB) != 2 {
		t.Errorf("swapped Diff = %v / %v", swapA, swapB)
	}
	// Identical settings: no difference.
	a, b := s.Diff(0.1, 0.3, 0.1, 0.3)
	if len(a) != 0 || len(b) != 0 {
		t.Errorf("self Diff = %v / %v", a, b)
	}
}

func TestRulesWithItems(t *testing.T) {
	s, d := fixedSlice(t, Options{ContentIndex: true})
	// Item 2 ("c") appears in R3, R4, R5, R6.
	got, err := s.RulesWithItems(0, 0, itemset.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("RulesWithItems(c) = %v, want 4 rules", got)
	}
	for _, id := range got {
		r, _ := d.Rule(id)
		if !r.Items().Contains(2) {
			t.Errorf("rule %v does not mention item 2", r)
		}
	}
	// Conjunction: items 0 and 2 → R3, R4 only.
	got, err = s.RulesWithItems(0, 0, itemset.New(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("RulesWithItems(a,c) = %v, want 2 rules", got)
	}
	// Thresholds still apply.
	got, err = s.RulesWithItems(0.2, 0.6, itemset.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("RulesWithItems(b) above thresholds = %v, want none", got)
	}
	// Empty item filter degrades to plain Rules.
	got, err = s.RulesWithItems(0, 0.4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Errorf("RulesWithItems(no filter) = %d rules, want 4", len(got))
	}
}

func TestRulesMergedMatchesRules(t *testing.T) {
	s, _ := fixedSlice(t, Options{ContentIndex: true})
	for _, q := range []struct{ supp, conf float64 }{{0, 0}, {0.2, 0.6}, {0, 0.4}, {0.9, 0.9}} {
		want := map[rules.ID]bool{}
		for _, id := range s.Rules(q.supp, q.conf) {
			want[id] = true
		}
		got, err := s.RulesMerged(q.supp, q.conf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("RulesMerged(%g,%g) = %v, want %d ids", q.supp, q.conf, got, len(want))
		}
		for _, id := range got {
			if !want[id] {
				t.Fatalf("RulesMerged(%g,%g) returned unexpected id %d", q.supp, q.conf, id)
			}
		}
	}
}

func TestRulesMergedRequiresIndex(t *testing.T) {
	s, _ := fixedSlice(t, Options{})
	if _, err := s.RulesMerged(0, 0); err == nil {
		t.Error("merge collection without index accepted")
	}
}

func TestRulesWithItemsRequiresIndex(t *testing.T) {
	s, _ := fixedSlice(t, Options{})
	if _, err := s.RulesWithItems(0, 0, itemset.New(1)); err == nil {
		t.Error("content query without index accepted")
	}
}

func TestBuildSliceContentIndexRequiresDict(t *testing.T) {
	if _, err := BuildSlice(0, 1, nil, Options{ContentIndex: true}); err == nil {
		t.Error("ContentIndex without Dict accepted")
	}
}

// dominates reports whether a location at (s1,c1) dominates (s2,c2):
// component-wise s1 <= s2 and c1 <= c2 (Definition 13 compares cut
// locations; a lower cut admits a superset of rules).
func dominates(s1, c1, s2, c2 float64) bool { return s1 <= s2 && c1 <= c2 }

func TestDominates(t *testing.T) {
	if !dominates(0.1, 0.2, 0.3, 0.4) {
		t.Error("lower cut should dominate higher")
	}
	if dominates(0.5, 0.2, 0.3, 0.4) {
		t.Error("mixed ordering should not dominate")
	}
	if !dominates(0.3, 0.4, 0.3, 0.4) {
		t.Error("domination is reflexive per Definition 13")
	}
}

func TestIndex(t *testing.T) {
	x := NewIndex()
	s0, err := BuildSlice(0, 1, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Append(s0); err != nil {
		t.Fatal(err)
	}
	s2, err := BuildSlice(2, 1, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Append(s2); err == nil {
		t.Error("out-of-order slice accepted")
	}
	if x.Windows() != 1 {
		t.Errorf("Windows = %d", x.Windows())
	}
	if _, err := x.Slice(0); err != nil {
		t.Errorf("Slice(0): %v", err)
	}
	if _, err := x.Slice(1); err == nil {
		t.Error("missing window resolved")
	}
}

// randomIDStats builds a random per-window ruleset with plausible counts.
func randomIDStats(r *rand.Rand, n uint32, numRules int) []IDStats {
	out := make([]IDStats, numRules)
	for i := range out {
		xy := uint32(1 + r.Intn(int(n)))
		x := xy + uint32(r.Intn(int(n-xy)+1))
		out[i] = IDStats{
			ID:    rules.ID(i),
			Stats: rules.Stats{CountXY: xy, CountX: x, N: n},
		}
	}
	return out
}

func TestPropertyRulesMatchLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		n := uint32(20 + r.Intn(80))
		rs := randomIDStats(r, n, 1+r.Intn(60))
		s, err := BuildSlice(0, n, rs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 20; probe++ {
			ms, mc := r.Float64(), r.Float64()
			got := s.Rules(ms, mc)
			want := map[rules.ID]bool{}
			for _, x := range rs {
				if x.Stats.Support() >= ms && x.Stats.Confidence() >= mc {
					want[x.ID] = true
				}
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d: Rules(%g,%g) = %d ids, want %d", trial, ms, mc, len(got), len(want))
			}
			for _, id := range got {
				if !want[id] {
					t.Fatalf("trial %d: unexpected rule %d", trial, id)
				}
			}
		}
	}
}

func TestPropertyRegionStability(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	for trial := 0; trial < 20; trial++ {
		n := uint32(20 + r.Intn(80))
		rs := randomIDStats(r, n, 1+r.Intn(40))
		s, err := BuildSlice(0, n, rs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 10; probe++ {
			ms, mc := r.Float64(), r.Float64()
			reg := s.Region(ms, mc)
			base := s.Count(ms, mc)
			if reg.Empty != (base == 0) {
				t.Fatalf("trial %d: Empty=%v but count=%d", trial, reg.Empty, base)
			}
			if reg.Empty {
				continue
			}
			if reg.NumRules != base {
				t.Fatalf("trial %d: region rules %d != count %d", trial, reg.NumRules, base)
			}
			// Random points inside the region yield the same count.
			for k := 0; k < 5; k++ {
				ps := reg.LowSupp + (reg.HighSupp-reg.LowSupp)*(1e-7+r.Float64()*(1-2e-7))
				pc := reg.LowConf + (reg.HighConf-reg.LowConf)*(1e-7+r.Float64()*(1-2e-7))
				if got := s.Count(ps, pc); got != base {
					t.Fatalf("trial %d: count changed inside region at (%g,%g): %d vs %d (region %v)",
						trial, ps, pc, got, base, reg)
				}
			}
		}
	}
}

func TestPropertyDominationMonotonicity(t *testing.T) {
	// Lemma 4: lowering either threshold never removes rules.
	r := rand.New(rand.NewSource(33))
	n := uint32(50)
	rs := randomIDStats(r, n, 60)
	s, err := BuildSlice(0, n, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for probe := 0; probe < 50; probe++ {
		ms, mc := r.Float64(), r.Float64()
		ms2 := ms * r.Float64() // <= ms
		mc2 := mc * r.Float64() // <= mc
		hi := s.Rules(ms, mc)
		lo := s.Rules(ms2, mc2)
		set := map[rules.ID]bool{}
		for _, id := range lo {
			set[id] = true
		}
		for _, id := range hi {
			if !set[id] {
				t.Fatalf("rule %d valid at (%g,%g) but missing at dominated (%g,%g)", id, ms, mc, ms2, mc2)
			}
		}
	}
}

func BenchmarkSliceRules(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	rs := randomIDStats(r, 10000, 20000)
	s, err := BuildSlice(0, 10000, rs, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Rules(0.5, 0.5)
	}
}

func BenchmarkSliceRegion(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	rs := randomIDStats(r, 10000, 20000)
	s, err := BuildSlice(0, 10000, rs, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Region(0.5, 0.5)
	}
}

func TestDominationGraphPaperExample(t *testing.T) {
	s, _ := fixedSlice(t, Options{})
	// Locations sorted: L0=(0.11,0.25) L1=(0.11,0.5) L2=(0.33,0.75).
	// L0 dominates L1 (same supp, lower conf) and L1 dominates L2;
	// L0->L2 is transitive, so the immediate graph has exactly 2 edges.
	edges := s.DominationGraph()
	if len(edges) != 2 {
		t.Fatalf("edges = %v, want 2 immediate edges", edges)
	}
	has := func(from, to int) bool {
		for _, e := range edges {
			if e.From == from && e.To == to {
				return true
			}
		}
		return false
	}
	if !has(0, 1) || !has(1, 2) {
		t.Errorf("edges = %v, want 0->1 and 1->2", edges)
	}
}

func TestPropertyDominationGraphSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	n := uint32(40)
	rs := randomIDStats(r, n, 25)
	s, err := BuildSlice(0, n, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	locs := s.Locations()
	for _, e := range s.DominationGraph() {
		a, b := locs[e.From], locs[e.To]
		if a.Supp > b.Supp || a.Conf > b.Conf {
			t.Fatalf("edge %v violates dominance: (%g,%g) -> (%g,%g)", e, a.Supp, a.Conf, b.Supp, b.Conf)
		}
		// Lemma 4: querying at the dominating cut includes the dominated
		// location's rules.
		got := s.Rules(a.Supp, a.Conf)
		set := map[rules.ID]bool{}
		for _, id := range got {
			set[id] = true
		}
		for _, id := range b.Rules {
			if !set[id] {
				t.Fatalf("rule %d at dominated location missing from dominating cut's answer", id)
			}
		}
	}
}

func TestPanorama(t *testing.T) {
	s, _ := fixedSlice(t, Options{})
	out := s.Panorama(30, 8, 0.2, 0.6)
	if !strings.Contains(out, "window 2: 6 rules at 3 locations") {
		t.Errorf("panorama header wrong:\n%s", out)
	}
	if !strings.Contains(out, "+") {
		t.Error("request marker missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 1+8+1 { // header + rows + axis
		t.Errorf("panorama has %d lines:\n%s", len(lines), out)
	}
	// Unmarked render still draws the locations.
	plain := s.Panorama(30, 8, -1, -1)
	if strings.Count(plain, ".")+strings.Count(plain, ":") == 0 {
		t.Errorf("no density characters in:\n%s", plain)
	}
	// Tiny dimensions are clamped, not rejected.
	if got := s.Panorama(1, 1, -1, -1); got == "" {
		t.Error("clamped panorama empty")
	}
	// Empty slice renders a note.
	empty, err := BuildSlice(0, 1, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(empty.Panorama(20, 5, -1, -1), "no rules") {
		t.Error("empty slice panorama missing note")
	}
}

// Boundary semantics under test below (Definition 11 / Lemma 4): rule
// qualification is inclusive (Supp >= minsupp, Conf >= minconf), and stable
// regions are half-open below and closed above (Low < min <= High). A query
// point lying exactly ON a distinct parameter value therefore belongs to the
// region whose High bound equals that value, and the rules at that exact
// location are part of the answer.

// TestRulesOnGridBoundaryInclusive pins the >= threshold semantics with
// hand-computed on-grid queries against the paper's fixed slice.
func TestRulesOnGridBoundaryInclusive(t *testing.T) {
	s, _ := fixedSlice(t, Options{})
	// Locations: (1/9,0.25)x2, (1/9,0.5)x2, (3/9,0.75)x2.
	cases := []struct {
		name       string
		supp, conf float64
		want       int
	}{
		{"exactly-at-top-location", 3.0 / 9, 0.75, 2},
		{"just-above-top-supp", math.Nextafter(3.0/9, 1), 0.75, 0},
		{"just-above-top-conf", 3.0 / 9, math.Nextafter(0.75, 1), 0},
		{"exactly-at-mid-location", 1.0 / 9, 0.5, 4},
		{"just-above-mid-conf", 1.0 / 9, math.Nextafter(0.5, 1), 2},
		{"on-grid-supp-off-grid-conf", 1.0 / 9, 0.3, 4},
		{"exactly-at-bottom-location", 1.0 / 9, 0.25, 6},
	}
	for _, c := range cases {
		if got := s.Count(c.supp, c.conf); got != c.want {
			t.Errorf("%s: Count(%g,%g) = %d, want %d", c.name, c.supp, c.conf, got, c.want)
		}
		if got := len(s.Rules(c.supp, c.conf)); got != c.want {
			t.Errorf("%s: len(Rules(%g,%g)) = %d, want %d", c.name, c.supp, c.conf, got, c.want)
		}
	}
}

// TestRegionOnGridBoundary pins Region's behavior for query points exactly on
// a cut location, with hand-computed expected boxes on the fixed slice.
func TestRegionOnGridBoundary(t *testing.T) {
	s, _ := fixedSlice(t, Options{})
	cases := []struct {
		name               string
		supp, conf         float64
		wantRules          int
		loS, hiS, loC, hiC float64
		cutSupp, cutConf   float64
	}{
		// Query exactly at the top location: it still qualifies, and the
		// region's high corner IS the query point.
		{"at-top-location", 3.0 / 9, 0.75, 2, 0, 3.0 / 9, 0.5, 0.75, 3.0 / 9, 0.75},
		// Query exactly at the middle location: the grid cell below-left of
		// the point, closed at the point itself.
		{"at-mid-location", 1.0 / 9, 0.5, 4, 0, 1.0 / 9, 0.25, 0.5, 1.0 / 9, 0.5},
		// On-grid support with a higher on-grid confidence: the low-support
		// row is invisible above conf 0.5, so the box expands across the
		// support boundary the query sits on.
		{"on-grid-supp-high-conf", 1.0 / 9, 0.75, 2, 0, 3.0 / 9, 0.5, 0.75, 3.0 / 9, 0.75},
	}
	for _, c := range cases {
		r := s.Region(c.supp, c.conf)
		if r.Empty {
			t.Errorf("%s: region unexpectedly empty", c.name)
			continue
		}
		if r.NumRules != c.wantRules {
			t.Errorf("%s: NumRules = %d, want %d", c.name, r.NumRules, c.wantRules)
		}
		if r.LowSupp != c.loS || r.HighSupp != c.hiS || r.LowConf != c.loC || r.HighConf != c.hiC {
			t.Errorf("%s: region supp(%g,%g] conf(%g,%g], want supp(%g,%g] conf(%g,%g]",
				c.name, r.LowSupp, r.HighSupp, r.LowConf, r.HighConf, c.loS, c.hiS, c.loC, c.hiC)
		}
		if r.CutSupp != c.cutSupp || r.CutConf != c.cutConf {
			t.Errorf("%s: cut = (%g,%g), want (%g,%g)", c.name, r.CutSupp, r.CutConf, c.cutSupp, c.cutConf)
		}
		// Half-open-below containment: the on-grid query point is inside.
		if !(r.LowSupp < c.supp && c.supp <= r.HighSupp && r.LowConf < c.conf && c.conf <= r.HighConf) {
			t.Errorf("%s: query (%g,%g) not inside region %v", c.name, c.supp, c.conf, r)
		}
	}
}

// TestPropertyRegionOnGridBoundary probes Region with every on-grid
// (support, confidence) combination of random slices — the exact coordinates
// where a search boundary condition would flip the answer — and checks the
// region contains the query and reports a count that holds across the box.
func TestPropertyRegionOnGridBoundary(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	for trial := 0; trial < 100; trial++ {
		n := uint32(10 + r.Intn(60))
		rs := randomIDStats(r, n, 1+r.Intn(25))
		s, err := BuildSlice(0, n, rs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		locs := s.Locations()
		for i := range locs {
			for j := range locs {
				qs, qc := locs[i].Supp, locs[j].Conf
				reg := s.Region(qs, qc)
				base := s.Count(qs, qc)
				if reg.Empty != (base == 0) {
					t.Fatalf("trial %d: Empty=%v but Count(%g,%g)=%d", trial, reg.Empty, qs, qc, base)
				}
				if reg.NumRules != base {
					t.Fatalf("trial %d: NumRules=%d but Count(%g,%g)=%d", trial, reg.NumRules, qs, qc, base)
				}
				// The on-grid query must fall inside its own region
				// (half-open below, closed above).
				if !(reg.LowSupp < qs && qs <= reg.HighSupp && reg.LowConf < qc && qc <= reg.HighConf) {
					t.Fatalf("trial %d: on-grid query (%g,%g) outside region %v", trial, qs, qc, reg)
				}
				// The count is constant across the region: at the closed high
				// corner, the cut location, just above the open low corner,
				// and the midpoint.
				probes := [][2]float64{
					{reg.HighSupp, reg.HighConf},
					{reg.CutSupp, reg.CutConf},
					{math.Nextafter(reg.LowSupp, 2), math.Nextafter(reg.LowConf, 2)},
					{(reg.LowSupp + reg.HighSupp) / 2, (reg.LowConf + reg.HighConf) / 2},
				}
				for _, p := range probes {
					if p[0] <= reg.LowSupp || p[0] > reg.HighSupp || p[1] <= reg.LowConf || p[1] > reg.HighConf {
						continue // degenerate box edge; probe landed outside
					}
					if got := s.Count(p[0], p[1]); got != base {
						t.Fatalf("trial %d: count changed inside region at (%g,%g): %d vs %d (query (%g,%g), region %v)",
							trial, p[0], p[1], got, base, qs, qc, reg)
					}
				}
			}
		}
	}
}

func TestPropertyDiffMatchesTwoQueries(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 15; trial++ {
		n := uint32(20 + r.Intn(60))
		rs := randomIDStats(r, n, 1+r.Intn(50))
		s, err := BuildSlice(0, n, rs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 10; probe++ {
			sa, ca := r.Float64(), r.Float64()
			sb, cb := r.Float64(), r.Float64()
			onlyA, onlyB := s.Diff(sa, ca, sb, cb)
			inA := map[rules.ID]bool{}
			for _, id := range s.Rules(sa, ca) {
				inA[id] = true
			}
			inB := map[rules.ID]bool{}
			for _, id := range s.Rules(sb, cb) {
				inB[id] = true
			}
			for _, id := range onlyA {
				if !inA[id] || inB[id] {
					t.Fatalf("trial %d: %d misclassified in onlyA", trial, id)
				}
			}
			for _, id := range onlyB {
				if !inB[id] || inA[id] {
					t.Fatalf("trial %d: %d misclassified in onlyB", trial, id)
				}
			}
			wantA, wantB := 0, 0
			for id := range inA {
				if !inB[id] {
					wantA++
				}
			}
			for id := range inB {
				if !inA[id] {
					wantB++
				}
			}
			if len(onlyA) != wantA || len(onlyB) != wantB {
				t.Fatalf("trial %d: diff sizes (%d,%d), want (%d,%d)", trial, len(onlyA), len(onlyB), wantA, wantB)
			}
		}
	}
}
