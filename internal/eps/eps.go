// Package eps implements the Evolving Parameter Space index of the paper
// (Definitions 9–13): per time window, the association rules are organized
// by their parametric locations in the (support × confidence) plane. Rules
// with identical parameter values share one location (Lemma 2); a mining
// request maps to a time-aware stable region whose ruleset is the union of
// the rules at all locations dominating the request point (Lemma 4). Online
// answering is therefore a quadrant collection over the location structure —
// no transaction data is touched.
package eps

import (
	"fmt"
	"sort"

	"tara/internal/itemset"
	"tara/internal/rules"
)

// Location is a temporal parametric location: the exact (support,
// confidence) coordinates shared by one or more rules in a window, kept with
// the integer counts they derive from.
type Location struct {
	Supp, Conf      float64
	CountXY, CountX uint32
	Rules           []rules.ID
	itemIdx         map[itemset.Item][]rules.ID
}

// Region is a time-aware stable region (Definition 11): a box in the
// parameter plane within which every (minsupp, minconf) setting produces the
// same ruleset. Bounds are half-open on the low side: the region covers
// settings with LowSupp < minsupp <= HighSupp and LowConf < minconf <=
// HighConf. CutSupp/CutConf is the region's cut location (Definition 12) —
// the parametric location whose quadrant defines the ruleset; Empty marks
// the degenerate region above every rule.
type Region struct {
	Window            int
	LowSupp, HighSupp float64
	LowConf, HighConf float64
	CutSupp, CutConf  float64
	Empty             bool
	NumRules          int
}

// String renders the region for CLI output.
func (r Region) String() string {
	if r.Empty {
		return fmt.Sprintf("window %d: empty region supp(%.6g,%.6g] conf(%.6g,%.6g]",
			r.Window, r.LowSupp, r.HighSupp, r.LowConf, r.HighConf)
	}
	return fmt.Sprintf("window %d: region supp(%.6g,%.6g] conf(%.6g,%.6g] cut=(%.6g,%.6g) rules=%d",
		r.Window, r.LowSupp, r.HighSupp, r.LowConf, r.HighConf, r.CutSupp, r.CutConf, r.NumRules)
}

// IDStats couples an interned rule id with its statistics in one window.
type IDStats struct {
	ID    rules.ID
	Stats rules.Stats
}

// Options configures slice construction.
type Options struct {
	// ContentIndex builds the per-location item → rules index used by the
	// TARA-S variant for content-based exploration (Q5). Requires Dict.
	ContentIndex bool
	// Dict resolves rule ids to rules when ContentIndex is set.
	Dict *rules.Dict
}

// Slice is one window's slice of the evolving parameter space.
type Slice struct {
	Window int
	N      uint32

	locs     []Location
	supports []float64 // distinct supports, ascending
	// rows[i] indexes locs at supports[i], sorted by ascending confidence.
	rows  [][]int32
	confs []float64 // distinct confidences, ascending
	// cols[j] indexes locs at confs[j], sorted by ascending support.
	cols           [][]int32
	contentIndexed bool

	// Lookup acceleration (built once per slice, immutable afterwards).
	// rowMaxConf[i] is the largest confidence in rows[i]; rowSkip[i] is the
	// next row with a strictly larger maximum confidence (len(rows) if none),
	// forming the dominance-ordered skip structure: every row between i and
	// rowSkip[i] has max confidence <= rowMaxConf[i], so a query whose
	// minconf exceeds rowMaxConf[i] can jump straight to rowSkip[i] without
	// touching the rows in between. rowCum[i][j] counts the rules at
	// rows[i][j:], so Count needs no per-location iteration.
	rowMaxConf []float64
	rowSkip    []int32
	rowCum     [][]int32
	// rowPost[i] is row i's posting stream — the row's locations encoded as
	// self-delimiting delta-varint segments in ascending-confidence order —
	// and rowPostOff[i] the per-location byte offsets into it (see
	// postings.go). A stable region's ruleset is served as sub-slices of
	// these streams, shared zero-copy along the domination graph.
	rowPost    [][]byte
	rowPostOff [][]int32

	// lazy is non-nil for slices restored from a mapped knowledge base
	// (persist.go): per-location rule lists and the content index are
	// materialized on first touch instead of at load. Built slices leave it
	// nil and behave exactly as before.
	lazy *lazySlice
}

// BuildSlice organizes the window's rules into a parameter-space slice.
// Rules with identical (support, confidence) merge into one location; the
// identity is decided on the exact rational counts, so float rounding cannot
// split a location.
func BuildSlice(window int, n uint32, rs []IDStats, opts Options) (*Slice, error) {
	if opts.ContentIndex && opts.Dict == nil {
		return nil, fmt.Errorf("eps: ContentIndex requires a rule dictionary")
	}
	s := &Slice{Window: window, N: n, contentIndexed: opts.ContentIndex}

	// Group rules by exact location. Same (countXY, countX) under one N
	// means same support and confidence; different counts can still yield
	// the same rational measures (e.g. 1/2 and 2/4), so key on the reduced
	// float pair, which IEEE division rounds identically for equal
	// rationals.
	type locKey struct{ supp, conf float64 }
	group := map[locKey]*Location{}
	for _, r := range rs {
		k := locKey{r.Stats.Support(), r.Stats.Confidence()}
		loc := group[k]
		if loc == nil {
			loc = &Location{
				Supp:    k.supp,
				Conf:    k.conf,
				CountXY: r.Stats.CountXY,
				CountX:  r.Stats.CountX,
			}
			group[k] = loc
		}
		loc.Rules = append(loc.Rules, r.ID)
	}
	s.locs = make([]Location, 0, len(group))
	for _, loc := range group {
		sort.Slice(loc.Rules, func(i, j int) bool { return loc.Rules[i] < loc.Rules[j] })
		if opts.ContentIndex {
			loc.itemIdx = map[itemset.Item][]rules.ID{}
			for _, id := range loc.Rules {
				rl, ok := opts.Dict.Rule(id)
				if !ok {
					return nil, fmt.Errorf("eps: rule id %d missing from dictionary", id)
				}
				for _, it := range rl.Items() {
					loc.itemIdx[it] = append(loc.itemIdx[it], id)
				}
			}
		}
		s.locs = append(s.locs, *loc)
	}
	// Deterministic order: by support, then confidence.
	sort.Slice(s.locs, func(i, j int) bool {
		if s.locs[i].Supp != s.locs[j].Supp {
			return s.locs[i].Supp < s.locs[j].Supp
		}
		return s.locs[i].Conf < s.locs[j].Conf
	})
	for i := range s.locs {
		if len(s.supports) == 0 || s.supports[len(s.supports)-1] != s.locs[i].Supp {
			s.supports = append(s.supports, s.locs[i].Supp)
			s.rows = append(s.rows, nil)
		}
		row := len(s.rows) - 1
		s.rows[row] = append(s.rows[row], int32(i))
	}
	// Confidence columns, for region expansion.
	order := make([]int32, len(s.locs))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		la, lb := &s.locs[order[a]], &s.locs[order[b]]
		if la.Conf != lb.Conf {
			return la.Conf < lb.Conf
		}
		return la.Supp < lb.Supp
	})
	for _, li := range order {
		c := s.locs[li].Conf
		if len(s.confs) == 0 || s.confs[len(s.confs)-1] != c {
			s.confs = append(s.confs, c)
			s.cols = append(s.cols, nil)
		}
		col := len(s.cols) - 1
		s.cols[col] = append(s.cols[col], li)
	}
	s.buildAccel()
	return s, nil
}

// buildAccel derives the skip structure and suffix rule counts from the
// finished row layout. Rows are conf-ascending, so a row's maximum
// confidence is its last location's; the skip pointers are the classic
// next-greater-element chains, built right to left in amortized linear time.
func (s *Slice) buildAccel() {
	s.rowMaxConf = make([]float64, len(s.rows))
	s.rowSkip = make([]int32, len(s.rows))
	s.rowCum = make([][]int32, len(s.rows))
	for i, idx := range s.rows {
		s.rowMaxConf[i] = s.locs[idx[len(idx)-1]].Conf
		cum := make([]int32, len(idx)+1)
		for j := len(idx) - 1; j >= 0; j-- {
			cum[j] = cum[j+1] + int32(len(s.locs[idx[j]].Rules))
		}
		s.rowCum[i] = cum
	}
	for i := len(s.rows) - 1; i >= 0; i-- {
		j := int32(i + 1)
		for j < int32(len(s.rows)) && s.rowMaxConf[j] <= s.rowMaxConf[i] {
			j = s.rowSkip[j]
		}
		s.rowSkip[i] = j
	}
	s.buildPostings()
}

// NumLocations returns the number of distinct parametric locations.
func (s *Slice) NumLocations() int { return len(s.locs) }

// NumRuleRefs returns the total number of rule references across locations,
// which equals the number of rules in the slice (each rule is stored once,
// per Lemma 3). The suffix count table answers it without touching the
// (possibly unmaterialized) rule lists.
func (s *Slice) NumRuleRefs() int {
	n := 0
	for i := range s.rowCum {
		n += int(s.rowCum[i][0])
	}
	return n
}

// Locations exposes the locations in (supp, conf) order, for inspection and
// tests; every rule list is materialized first so callers can read Rules
// directly. Callers must not mutate the returned slice.
func (s *Slice) Locations() []Location {
	s.materializeRules()
	return s.locs
}

// GridDims reports the cut-grid axis sizes: the number of distinct support
// values and distinct confidence values (Definition 12's candidate cut
// locations per axis). Build telemetry surfaces these as the slice's
// "regions/cuts per window" figures.
func (s *Slice) GridDims() (suppCuts, confCuts int) {
	return len(s.supports), len(s.confs)
}

// SupportCuts returns a copy of the slice's distinct support cut values in
// ascending order — the support axis of the cut grid (Definition 12). The
// parallel-build differential test compares these across build modes to
// assert the EPS came out identical.
func (s *Slice) SupportCuts() []float64 {
	out := make([]float64, len(s.supports))
	copy(out, s.supports)
	return out
}

// ConfidenceCuts returns a copy of the distinct confidence cut values in
// ascending order — the confidence axis of the cut grid.
func (s *Slice) ConfidenceCuts() []float64 {
	out := make([]float64, len(s.confs))
	copy(out, s.confs)
	return out
}

// CutIndex canonicalizes a request point to its time-aware stable region's
// cut location (Definition 12) by binary search over the per-axis cut grids:
// si is the index of the first distinct support >= minSupp, ci of the first
// distinct confidence >= minConf (either may be one past the end, the empty
// cut above every rule). By Lemma 4 the answer to any of the slice's
// threshold queries depends on the request point only through (si, ci) — all
// settings inside one stable region share a cut and therefore a ruleset —
// which is what makes (Window, si, ci) a lossless memoization key.
func (s *Slice) CutIndex(minSupp, minConf float64) (si, ci int) {
	return sort.SearchFloat64s(s.supports, minSupp), sort.SearchFloat64s(s.confs, minConf)
}

// forEachQualifying visits every location with Supp >= minSupp and Conf >=
// minConf, the dominated-region collection of Lemma 4. Rows below minSupp
// are excluded by binary search; rows whose maximum confidence falls below
// minConf are jumped over via the dominance-ordered skip chain, so only rows
// that contribute at least one qualifying location pay a per-row search
// (plus the strictly-increasing-max chain rows crossed while skipping).
func (s *Slice) forEachQualifying(minSupp, minConf float64, fn func(li int32)) {
	for row := sort.SearchFloat64s(s.supports, minSupp); row < len(s.rows); {
		if s.rowMaxConf[row] < minConf {
			row = int(s.rowSkip[row])
			continue
		}
		idx := s.rows[row]
		// Locations in a row are sorted by confidence.
		lo := sort.Search(len(idx), func(i int) bool { return s.locs[idx[i]].Conf >= minConf })
		for _, li := range idx[lo:] {
			fn(li)
		}
		row++
	}
}

// scanQualifying is the pre-acceleration reference collection: it visits
// every row at or above minSupp, whether or not the row contributes. It is
// retained for differential tests and as the benchmark baseline the skip
// structure is measured against.
func (s *Slice) scanQualifying(minSupp, minConf float64, fn func(li int32)) {
	start := sort.SearchFloat64s(s.supports, minSupp)
	for row := start; row < len(s.rows); row++ {
		idx := s.rows[row]
		lo := sort.Search(len(idx), func(i int) bool { return s.locs[idx[i]].Conf >= minConf })
		for _, li := range idx[lo:] {
			fn(li)
		}
	}
}

// ScanRules is Rules computed by the reference scan (no skip structure, no
// preallocation). Exported for differential tests and benchmarks only.
func (s *Slice) ScanRules(minSupp, minConf float64) []rules.ID {
	var out []rules.ID
	s.scanQualifying(minSupp, minConf, func(li int32) {
		out = append(out, s.locRules(li)...)
	})
	return out
}

// ScanCount is Count computed by the reference scan. Exported for
// differential tests and benchmarks only.
func (s *Slice) ScanCount(minSupp, minConf float64) int {
	n := 0
	s.scanQualifying(minSupp, minConf, func(li int32) { n += len(s.locRules(li)) })
	return n
}

// Rules returns the ids of all rules satisfying (minSupp, minConf) in this
// window. Qualification is inclusive — a rule whose support or confidence
// equals the threshold exactly is part of the answer, matching the closed
// dominated quadrant of Lemma 4. The order is deterministic — locations by ascending support then
// confidence, ids ascending within a location — but not globally sorted by
// id; sorting a large answer would dominate the collection cost.
func (s *Slice) Rules(minSupp, minConf float64) []rules.ID {
	out := s.AppendRules(nil, minSupp, minConf)
	if len(out) == 0 {
		return nil
	}
	return out
}

// Count returns the number of rules satisfying (minSupp, minConf) without
// materializing them. With the suffix rule counts, each contributing row
// costs one binary search and one array read.
func (s *Slice) Count(minSupp, minConf float64) int {
	n := 0
	for row := sort.SearchFloat64s(s.supports, minSupp); row < len(s.rows); {
		if s.rowMaxConf[row] < minConf {
			row = int(s.rowSkip[row])
			continue
		}
		idx := s.rows[row]
		lo := sort.Search(len(idx), func(i int) bool { return s.locs[idx[i]].Conf >= minConf })
		n += int(s.rowCum[row][lo])
		row++
	}
	return n
}

// RulesWithItems returns rules satisfying (minSupp, minConf) that mention
// every item in items (content-based exploration, Q5). It requires the
// slice to have been built with ContentIndex (the TARA-S configuration);
// the per-location indexes are merged during collection, which is the extra
// cost the paper attributes to TARA-S.
func (s *Slice) RulesWithItems(minSupp, minConf float64, items itemset.Set) ([]rules.ID, error) {
	if !s.contentIndexed {
		return nil, fmt.Errorf("eps: slice %d was built without a content index", s.Window)
	}
	if len(items) == 0 {
		return s.Rules(minSupp, minConf), nil
	}
	var out []rules.ID
	s.forEachQualifying(minSupp, minConf, func(li int32) {
		idx := s.locItemIdx(li)
		// Probe the rarest posting list first, then verify the rest.
		first := idx[items[0]]
		for _, it := range items[1:] {
			if cand := idx[it]; len(cand) < len(first) {
				first = cand
			}
		}
	cand:
		for _, id := range first {
			for _, it := range items {
				if !containsID(idx[it], id) {
					continue cand
				}
			}
			out = append(out, id)
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// RulesMerged collects the qualifying rules the TARA-S way: by merging the
// per-location rule content indexes instead of concatenating plain rule
// lists. This is the collection path whose extra merge cost the paper
// reports for TARA-S on small result sets; it requires a content-indexed
// slice.
func (s *Slice) RulesMerged(minSupp, minConf float64) ([]rules.ID, error) {
	if !s.contentIndexed {
		return nil, fmt.Errorf("eps: slice %d was built without a content index", s.Window)
	}
	// The answer size is known up front (every qualifying rule appears in the
	// merge), so the seen-set and output can be sized exactly: the dedup is
	// one hash probe per posting-list entry, linear in the total posting
	// volume of the qualifying locations.
	seen := make(map[rules.ID]struct{}, s.Count(minSupp, minConf))
	s.forEachQualifying(minSupp, minConf, func(li int32) {
		for _, ids := range s.locItemIdx(li) {
			for _, id := range ids {
				seen[id] = struct{}{}
			}
		}
	})
	out := make([]rules.ID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

func containsID(ids []rules.ID, id rules.ID) bool {
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	return i < len(ids) && ids[i] == id
}

// maxRegionExpansion bounds how many grid boundaries Region crosses per
// direction while growing the stable box. Regions are reported correctly
// regardless; the cap only limits how far a best-effort maximal box extends
// in pathological slices.
const maxRegionExpansion = 64

// Region returns a time-aware stable region containing the request point
// (minSupp, minConf): a parameter box within which the output ruleset is
// guaranteed unchanged (Definition 11). The box starts at the grid cell
// bounded by the distinct parameter values adjacent to the request — stable
// by construction, since no parametric location can change qualification
// without a boundary crossing — and greedily expands across boundaries whose
// locations never qualify anywhere in the box. This is the
// parameter-recommendation answer of query Q3 (the TARA-R response).
//
// Boundary semantics: because qualification is inclusive (>=) and region
// bounds are half-open below (Low < min <= High), a request lying exactly on
// a distinct parameter value belongs to the region whose High bound equals
// that value — the on-grid point and its cut location yield the same
// ruleset, and the answer changes only strictly beyond the value.
func (s *Slice) Region(minSupp, minConf float64) Region {
	r := Region{Window: s.Window}
	// Grid cell indexes: hiS/hiC point at the first distinct value >= the
	// request (possibly one past the end), loS/loC at the previous one.
	hiS := sort.SearchFloat64s(s.supports, minSupp)
	hiC := sort.SearchFloat64s(s.confs, minConf)
	loS, loC := hiS-1, hiC-1

	suppAt := func(i int) float64 {
		if i < 0 {
			return 0
		}
		if i >= len(s.supports) {
			return 1
		}
		return s.supports[i]
	}
	confAt := func(j int) float64 {
		if j < 0 {
			return 0
		}
		if j >= len(s.confs) {
			return 1
		}
		return s.confs[j]
	}

	r.NumRules = s.Count(minSupp, minConf)
	r.Empty = r.NumRules == 0
	r.CutSupp, r.CutConf = suppAt(hiS), confAt(hiC)

	// Expansion predicates, exact for a single boundary crossing given the
	// current bounds:
	//   - crossing support boundary si is invisible iff every location in
	//     that row has Conf <= LowConf (it can never qualify in the box);
	//   - crossing confidence boundary cj is invisible iff every location in
	//     that column has Supp <= LowSupp.
	rowInvisible := func(si int, lowConf float64) bool {
		for _, li := range s.rows[si] {
			if s.locs[li].Conf > lowConf {
				return false
			}
		}
		return true
	}
	colInvisible := func(cj int, lowSupp float64) bool {
		for _, li := range s.cols[cj] {
			if s.locs[li].Supp > lowSupp {
				return false
			}
		}
		return true
	}
	for step := 0; step < maxRegionExpansion && loS >= 0 && rowInvisible(loS, confAt(loC)); step++ {
		loS--
	}
	for step := 0; step < maxRegionExpansion && hiS < len(s.supports) && rowInvisible(hiS, confAt(loC)); step++ {
		hiS++
	}
	for step := 0; step < maxRegionExpansion && loC >= 0 && colInvisible(loC, suppAt(loS)); step++ {
		loC--
	}
	for step := 0; step < maxRegionExpansion && hiC < len(s.confs) && colInvisible(hiC, suppAt(loS)); step++ {
		hiC++
	}

	r.LowSupp, r.HighSupp = suppAt(loS), suppAt(hiS)
	r.LowConf, r.HighConf = confAt(loC), confAt(hiC)
	if !r.boxStable(s) {
		// Expansions interact across axes in rare configurations (a later
		// low-bound move can re-expose an already-crossed boundary); fall
		// back to the grid cell, which is stable unconditionally.
		hiS = sort.SearchFloat64s(s.supports, minSupp)
		hiC = sort.SearchFloat64s(s.confs, minConf)
		r.LowSupp, r.HighSupp = suppAt(hiS-1), suppAt(hiS)
		r.LowConf, r.HighConf = confAt(hiC-1), confAt(hiC)
	}
	r.CutSupp, r.CutConf = r.HighSupp, r.HighConf
	return r
}

// boxStable verifies the joint stability predicate: every location either
// qualifies at every point of the box (Supp >= HighSupp and Conf >=
// HighConf) or at none (Supp <= LowSupp or Conf <= LowConf).
func (r Region) boxStable(s *Slice) bool {
	for i := range s.locs {
		l := &s.locs[i]
		if l.Supp >= r.HighSupp && l.Conf >= r.HighConf {
			continue
		}
		if l.Supp <= r.LowSupp || l.Conf <= r.LowConf {
			continue
		}
		return false
	}
	return true
}

// Diff partitions the rules that differ between two parameter settings in
// this window: onlyA satisfies settingA but not settingB, onlyB vice versa
// (the per-window core of the ruleset comparison query Q2). Because
// qualification is monotone, a single pass over the locations suffices.
func (s *Slice) Diff(suppA, confA, suppB, confB float64) (onlyA, onlyB []rules.ID) {
	for i := range s.locs {
		l := &s.locs[i]
		inA := l.Supp >= suppA && l.Conf >= confA
		inB := l.Supp >= suppB && l.Conf >= confB
		switch {
		case inA && !inB:
			onlyA = append(onlyA, s.locRules(int32(i))...)
		case inB && !inA:
			onlyB = append(onlyB, s.locRules(int32(i))...)
		}
	}
	sort.Slice(onlyA, func(i, j int) bool { return onlyA[i] < onlyA[j] })
	sort.Slice(onlyB, func(i, j int) bool { return onlyB[i] < onlyB[j] })
	return onlyA, onlyB
}

// DominationEdge links a dominating location to one it immediately
// dominates in the slice's domination graph (Definition 13): From's cut
// admits a superset of To's rules, with no third location strictly between
// them. The edges form the transitive reduction of the dominance partial
// order over parametric locations.
type DominationEdge struct {
	From, To int // indexes into Locations()
}

// DominationGraph materializes the immediate-domination edges among the
// slice's parametric locations. The graph is what TARA traverses
// conceptually when collecting dominated regions (Lemma 4); the quadrant
// walk is its iterative equivalent. Complexity is O(L²·L) in the worst
// case; it is intended for inspection, visualization and tests, not for the
// query path.
func (s *Slice) DominationGraph() []DominationEdge {
	dominates := func(a, b int) bool {
		return (s.locs[a].Supp <= s.locs[b].Supp && s.locs[a].Conf <= s.locs[b].Conf) && a != b
	}
	var edges []DominationEdge
	for a := range s.locs {
		for b := range s.locs {
			if !dominates(a, b) {
				continue
			}
			immediate := true
			for c := range s.locs {
				if c != a && c != b && dominates(a, c) && dominates(c, b) {
					immediate = false
					break
				}
			}
			if immediate {
				edges = append(edges, DominationEdge{From: a, To: b})
			}
		}
	}
	return edges
}

// Index is the evolving parameter space: one slice per window.
type Index struct {
	slices []*Slice
}

// NewIndex returns an empty EPS index.
func NewIndex() *Index { return &Index{} }

// Append adds the next window's slice. Slices must arrive in window order.
func (x *Index) Append(s *Slice) error {
	if s.Window != len(x.slices) {
		return fmt.Errorf("eps: slice for window %d appended at position %d", s.Window, len(x.slices))
	}
	x.slices = append(x.slices, s)
	return nil
}

// Slice returns the slice for window w.
func (x *Index) Slice(w int) (*Slice, error) {
	if w < 0 || w >= len(x.slices) {
		return nil, fmt.Errorf("eps: window %d out of range [0,%d)", w, len(x.slices))
	}
	return x.slices[w], nil
}

// Windows returns the number of indexed windows.
func (x *Index) Windows() int { return len(x.slices) }
