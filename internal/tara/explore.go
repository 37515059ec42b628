package tara

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"tara/internal/archive"
	"tara/internal/eps"
	"tara/internal/itemset"
	"tara/internal/obs"
	"tara/internal/rules"
	"tara/internal/txdb"
)

// This file is the TARA Online Explorer: the query classes of Section 2.5
// answered purely from the knowledge base.
//
//	Q1  Mine + RuleTrajectories — rules for a setting in one window, with
//	    their parameter values examined across other windows.
//	Q2  Compare — evolving ruleset comparison between two settings.
//	Q3  Recommend — the time-aware stable region of a setting (TARA-R).
//	Q4  MineRollUp / DrillDown — coarser/finer time granularity.
//	Q5  RulesAbout — content-based exploration (TARA-S).

// RuleView is one rule materialized for query output.
type RuleView struct {
	ID    rules.ID
	Rule  rules.Rule
	Stats rules.Stats
}

// Support, Confidence and Lift are re-exported from Stats for convenience.
func (v RuleView) Support() float64    { return v.Stats.Support() }
func (v RuleView) Confidence() float64 { return v.Stats.Confidence() }
func (v RuleView) Lift() float64       { return v.Stats.Lift() }

// view materializes a rule id in window w using archived stats.
func (f *Framework) view(id rules.ID, w int) (RuleView, error) {
	r, ok := f.ruleDict.Rule(id)
	if !ok {
		return RuleView{}, fmt.Errorf("tara: unknown rule id %d", id)
	}
	st, ok := f.arch.StatsAt(id, w)
	if !ok {
		return RuleView{}, fmt.Errorf("tara: rule %d has no record in window %d", id, w)
	}
	return RuleView{ID: id, Rule: r, Stats: st}, nil
}

// Mine returns the rules satisfying (minSupp, minConf) in window w — the
// traditional temporal mining request, answered by quadrant collection over
// the window's parameter-space slice. The returned slice may be shared with
// the query cache and other callers: treat it as read-only. Callers that
// need a mutable answer copy it first.
func (f *Framework) Mine(w int, minSupp, minConf float64) ([]RuleView, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.mineLocked(nil, w, minSupp, minConf)
}

// mineLocked is Mine's implementation; callers hold f.mu. The answer is
// served from the query cache when the request's stable region has been
// collected before (Lemma 4 makes the canonical cut a lossless key). The
// returned slice is the cached value itself — shared, immutable, and safe
// for concurrent readers; callers must treat it as read-only and copy
// before mutating. Serving the shared slice is what makes a warm hit
// allocation-free.
func (f *Framework) mineLocked(tr *obs.Trace, w int, minSupp, minConf float64) ([]RuleView, error) {
	if err := f.checkGenThresholds(minSupp, minConf); err != nil {
		return nil, err
	}
	slice, err := f.index.Slice(w)
	if err != nil {
		return nil, err
	}
	sp := tr.Start(obs.StageCut)
	si, ci := slice.CutIndex(minSupp, minConf)
	sp.End()
	k := cacheKey{window: int32(w), class: classMine, a: cutKey(si, ci)}
	return memoize(f, tr, k, func() ([]RuleView, error) {
		return f.collectViews(tr, slice, w, minSupp, minConf)
	})
}

// idBufPool recycles the rule-id scratch buffers of the cold mine path: the
// ids live only between EPS collection and view materialization, so pooling
// them removes the one per-miss allocation whose size tracks the answer.
var idBufPool = sync.Pool{New: func() any { b := make([]rules.ID, 0, 1024); return &b }}

// collectViews runs the uncached mine pipeline: EPS quadrant collection into
// a pooled id buffer, then view materialization. The returned views are
// freshly allocated (they may be cached and shared afterwards).
func (f *Framework) collectViews(tr *obs.Trace, slice *eps.Slice, w int, minSupp, minConf float64) ([]RuleView, error) {
	bufp := idBufPool.Get().(*[]rules.ID)
	sp := tr.Start(obs.StageEPSLookup)
	ids := slice.AppendRules((*bufp)[:0], minSupp, minConf)
	sp.End()
	sp = tr.Start(obs.StageMaterialize)
	views, err := f.materializeViews(ids, w)
	sp.End()
	*bufp = ids[:0]
	idBufPool.Put(bufp)
	return views, err
}

// materializeViews resolves an id list against the archive for window w.
func (f *Framework) materializeViews(ids []rules.ID, w int) ([]RuleView, error) {
	out := make([]RuleView, len(ids))
	var err error
	for i, id := range ids {
		out[i], err = f.view(id, w)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Count returns the number of rules satisfying (minSupp, minConf) in window
// w without materializing them — the cheapest online probe, served from the
// cache's canonical cut when warm.
func (f *Framework) Count(w int, minSupp, minConf float64) (int, error) {
	return f.CountTraced(nil, w, minSupp, minConf)
}

// CountTraced is Count with per-stage span recording on tr (nil disables).
func (f *Framework) CountTraced(tr *obs.Trace, w int, minSupp, minConf float64) (int, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if err := f.checkGenThresholds(minSupp, minConf); err != nil {
		return 0, err
	}
	slice, err := f.index.Slice(w)
	if err != nil {
		return 0, err
	}
	if tr == nil {
		// Untraced fast path: Count is ~65ns warm, so even inlined inert
		// spans are a measurable tax here. One branch instead of four.
		if f.qcache == nil {
			return slice.Count(minSupp, minConf), nil
		}
		si, ci := slice.CutIndex(minSupp, minConf)
		k := cacheKey{window: int32(w), class: classCount, a: cutKey(si, ci)}
		if v, ok := f.qcache.get(k); ok {
			return v.(int), nil
		}
		n := slice.Count(minSupp, minConf)
		f.qcache.Put(k, n)
		return n, nil
	}
	sp := tr.Start(obs.StageCut)
	si, ci := slice.CutIndex(minSupp, minConf)
	sp.End()
	k := cacheKey{window: int32(w), class: classCount, a: cutKey(si, ci)}
	return memoize(f, tr, k, func() (int, error) {
		defer tr.Start(obs.StageEPSLookup).End()
		return slice.Count(minSupp, minConf), nil
	})
}

// MineFiltered is Mine with additional interestingness thresholds beyond
// the two EPS dimensions — the "other measures can be plugged in" direction
// of Section 2.2.2. minLift filters on Formula 3 (values <= 0 disable it).
// The lift filter is a post-pass over the answer set: it is not an index
// dimension, so its cost is linear in the (support, confidence) answer.
func (f *Framework) MineFiltered(w int, minSupp, minConf, minLift float64) ([]RuleView, error) {
	return f.MineFilteredTraced(nil, w, minSupp, minConf, minLift)
}

// MineFilteredTraced is MineFiltered with per-stage span recording on tr.
// The lift post-pass counts toward the materialize stage.
func (f *Framework) MineFilteredTraced(tr *obs.Trace, w int, minSupp, minConf, minLift float64) ([]RuleView, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	views, err := f.mineLocked(tr, w, minSupp, minConf)
	if err != nil {
		return nil, err
	}
	if minLift <= 0 {
		return views, nil
	}
	// The unfiltered answer may be the shared cached slice, so the lift
	// post-pass filters into a fresh slice instead of compacting in place.
	sp := tr.Start(obs.StageMaterialize)
	out := make([]RuleView, 0, len(views))
	for _, v := range views {
		if v.Lift() >= minLift {
			out = append(out, v)
		}
	}
	sp.End()
	return out, nil
}

// MineMerged is the TARA-S variant of Mine: qualifying rules are collected
// by merging the per-region content indexes, the collection path the paper's
// TARA-S curves measure. It requires ContentIndex.
func (f *Framework) MineMerged(w int, minSupp, minConf float64) ([]RuleView, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if err := f.checkGenThresholds(minSupp, minConf); err != nil {
		return nil, err
	}
	slice, err := f.index.Slice(w)
	if err != nil {
		return nil, err
	}
	ids, err := slice.RulesMerged(minSupp, minConf)
	if err != nil {
		return nil, err
	}
	return f.materializeViews(ids, w)
}

// checkGenThresholds rejects requests below the pregeneration thresholds,
// which the knowledge base cannot answer ("time availability" of the
// parameter dimension mirrors Definition 8's of the time dimension).
func (f *Framework) checkGenThresholds(minSupp, minConf float64) error {
	if minSupp < f.cfg.GenMinSupport {
		return fmt.Errorf("tara: minsupp %g below generation threshold %g", minSupp, f.cfg.GenMinSupport)
	}
	if minConf < f.cfg.GenMinConf {
		return fmt.Errorf("tara: minconf %g below generation threshold %g", minConf, f.cfg.GenMinConf)
	}
	return nil
}

// RuleTrajectory is one Q1 answer row: a rule qualifying in the query
// window together with its archived statistics in every examined window
// (Present[i] false where the rule was not pregenerated).
type RuleTrajectory struct {
	ID      rules.ID
	Rule    rules.Rule
	Windows []int
	Stats   []rules.Stats
	Present []bool
}

// RuleTrajectories answers Q1: find rules satisfying the setting in window
// w, then examine their parameter values in the other specified windows.
func (f *Framework) RuleTrajectories(w int, minSupp, minConf float64, others []int) ([]RuleTrajectory, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if err := f.checkGenThresholds(minSupp, minConf); err != nil {
		return nil, err
	}
	slice, err := f.index.Slice(w)
	if err != nil {
		return nil, err
	}
	for _, o := range others {
		if o < 0 || o >= len(f.windows) {
			return nil, fmt.Errorf("tara: trajectory window %d out of range", o)
		}
	}
	ids := slice.Rules(minSupp, minConf)
	out := make([]RuleTrajectory, 0, len(ids))
	for _, id := range ids {
		r, ok := f.ruleDict.Rule(id)
		if !ok {
			return nil, fmt.Errorf("tara: unknown rule id %d", id)
		}
		tr := RuleTrajectory{
			ID:      id,
			Rule:    r,
			Windows: others,
			Stats:   make([]rules.Stats, len(others)),
			Present: make([]bool, len(others)),
		}
		// One decode pass per rule over the examined windows, served as a
		// view off the payload bytes (mapped KBs stay mapped) — not a
		// StatsAt probe per window, which re-decodes the series each time.
		f.arch.StatsIn(id, others, tr.Stats, tr.Present)
		out = append(out, tr)
	}
	return out, nil
}

// WindowDiff is the per-window outcome of a Q2 comparison.
type WindowDiff struct {
	Window int
	OnlyA  []rules.ID
	OnlyB  []rules.ID
}

// Compare answers Q2 in exact-match mode: for every requested window, the
// rules satisfying setting A but not B and vice versa.
func (f *Framework) Compare(windows []int, suppA, confA, suppB, confB float64) ([]WindowDiff, error) {
	return f.CompareTraced(nil, windows, suppA, confA, suppB, confB)
}

// CompareTraced is Compare with per-stage span recording on tr; spans
// accumulate across the requested windows.
func (f *Framework) CompareTraced(tr *obs.Trace, windows []int, suppA, confA, suppB, confB float64) ([]WindowDiff, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if err := f.checkGenThresholds(suppA, confA); err != nil {
		return nil, err
	}
	if err := f.checkGenThresholds(suppB, confB); err != nil {
		return nil, err
	}
	out := make([]WindowDiff, 0, len(windows))
	for _, w := range windows {
		a, b, err := f.diffLocked(tr, w, suppA, confA, suppB, confB)
		if err != nil {
			return nil, err
		}
		out = append(out, WindowDiff{Window: w, OnlyA: a, OnlyB: b})
	}
	return out, nil
}

// diffLocked computes one window of a Q2 comparison, cached under the two
// settings' canonical cuts; callers hold f.mu. Like mineLocked, the returned
// id lists may be the shared cached value and are read-only.
func (f *Framework) diffLocked(tr *obs.Trace, w int, suppA, confA, suppB, confB float64) (onlyA, onlyB []rules.ID, err error) {
	slice, err := f.index.Slice(w)
	if err != nil {
		return nil, nil, err
	}
	sp := tr.Start(obs.StageCut)
	siA, ciA := slice.CutIndex(suppA, confA)
	siB, ciB := slice.CutIndex(suppB, confB)
	sp.End()
	k := cacheKey{window: int32(w), class: classDiff, a: cutKey(siA, ciA), b: cutKey(siB, ciB)}
	d, err := memoize(f, tr, k, func() (diffValue, error) {
		defer tr.Start(obs.StageEPSLookup).End()
		a, b := slice.Diff(suppA, confA, suppB, confB)
		return diffValue{onlyA: a, onlyB: b}, nil
	})
	return d.onlyA, d.onlyB, err
}

// Recommend answers Q3: the time-aware stable region around the request,
// telling the analyst how far the parameters can move before the output
// changes (the TARA-R response of the experiments).
func (f *Framework) Recommend(w int, minSupp, minConf float64) (eps.Region, error) {
	return f.RecommendTraced(nil, w, minSupp, minConf)
}

// RecommendTraced is Recommend with per-stage span recording on tr.
func (f *Framework) RecommendTraced(tr *obs.Trace, w int, minSupp, minConf float64) (eps.Region, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if err := f.checkGenThresholds(minSupp, minConf); err != nil {
		return eps.Region{}, err
	}
	slice, err := f.index.Slice(w)
	if err != nil {
		return eps.Region{}, err
	}
	// A stable region is itself a function of the cut only: Region derives
	// every bound from the grid cell around the request, which the cut
	// indexes identify.
	sp := tr.Start(obs.StageCut)
	si, ci := slice.CutIndex(minSupp, minConf)
	sp.End()
	k := cacheKey{window: int32(w), class: classRegion, a: cutKey(si, ci)}
	return memoize(f, tr, k, func() (eps.Region, error) {
		defer tr.Start(obs.StageEPSLookup).End()
		return slice.Region(minSupp, minConf), nil
	})
}

// RollUpRule is one rule of a coarse-period mining answer. Stats are the
// exact sums over the windows where the rule was pregenerated;
// MaxSupportError bounds how much the period support may be underestimated
// because of windows where the rule fell below the generation thresholds.
type RollUpRule struct {
	ID      rules.ID
	Rule    rules.Rule
	Stats   rules.Stats
	Present int // windows of the period in which the rule was archived
	// MaxSupportError is the roll-up approximation bound: in each absent
	// window w the rule's count is < max(⌈s_gen·N_w⌉, ⌈c_gen·N_w⌉), so the
	// period support is underestimated by less than the sum of those caps
	// over absent windows divided by the period's N.
	MaxSupportError float64
}

// MineRollUp answers the coarse-granularity mining request (roll-up, Q4):
// rules whose exact rolled-up support and confidence over windows
// [from, to] meet the thresholds. Candidates are sound for the archived
// knowledge: any rule whose period support meets minSupp must reach minSupp
// in at least one window (a mean cannot exceed every component), so the
// union of per-window qualifying sets is screened. The residual
// approximation — contributions from windows where a rule fell below the
// generation thresholds — is quantified per rule by MaxSupportError.
func (f *Framework) MineRollUp(from, to int, minSupp, minConf float64) ([]RollUpRule, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if err := f.checkGenThresholds(minSupp, minConf); err != nil {
		return nil, err
	}
	if from < 0 || to >= len(f.windows) || from > to {
		return nil, fmt.Errorf("tara: roll-up range [%d,%d] out of bounds (have %d windows)", from, to, len(f.windows))
	}
	candidates := map[rules.ID]bool{}
	for w := from; w <= to; w++ {
		slice, err := f.index.Slice(w)
		if err != nil {
			return nil, err
		}
		for _, id := range slice.Rules(minSupp, 0) {
			candidates[id] = true
		}
	}
	var periodN uint32
	for w := from; w <= to; w++ {
		n, err := f.arch.WindowN(w)
		if err != nil {
			return nil, err
		}
		periodN += n
	}
	var out []RollUpRule
	for id := range candidates {
		st, present, err := f.arch.RollUp(id, from, to)
		if err != nil {
			return nil, err
		}
		if st.Support() < minSupp || st.Confidence() < minConf {
			continue
		}
		r, ok := f.ruleDict.Rule(id)
		if !ok {
			return nil, fmt.Errorf("tara: unknown rule id %d", id)
		}
		out = append(out, RollUpRule{
			ID:              id,
			Rule:            r,
			Stats:           st,
			Present:         present,
			MaxSupportError: f.rollUpErrorBound(id, from, to, periodN),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// rollUpErrorBound computes the support-underestimate bound for a rule over
// [from, to]: absent windows contribute strictly less than
// max(⌈s_gen·N_w⌉, ⌈c_gen·N_w⌉) joint occurrences each.
func (f *Framework) rollUpErrorBound(id rules.ID, from, to int, periodN uint32) float64 {
	presentIn := map[int]bool{}
	for _, e := range f.arch.Range(id, from, to) {
		presentIn[e.Window] = true
	}
	var missing float64
	for w := from; w <= to; w++ {
		if presentIn[w] {
			continue
		}
		n := float64(f.windows[w].N)
		capSupp := math.Ceil(f.cfg.GenMinSupport * n)
		capConf := math.Ceil(f.cfg.GenMinConf * n)
		missing += math.Max(capSupp, capConf)
	}
	if periodN == 0 {
		return 0
	}
	return missing / float64(periodN)
}

// RollUpSlice materializes a parameter-space slice for the coarse period
// [from, to] from the archive's exact rolled-up statistics, so stable-region
// recommendation (Q3) and ruleset comparison (Q2) work at coarse granularity
// too. The slice carries the same approximation caveat as MineRollUp: rules
// below the generation thresholds in some windows contribute only their
// archived counts. The window index of the returned slice is `from`.
func (f *Framework) RollUpSlice(from, to int) (*eps.Slice, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.rollUpSliceLocked(from, to)
}

// rollUpSliceLocked is RollUpSlice's implementation; callers hold f.mu.
func (f *Framework) rollUpSliceLocked(from, to int) (*eps.Slice, error) {
	if from < 0 || to >= len(f.windows) || from > to {
		return nil, fmt.Errorf("tara: roll-up range [%d,%d] out of bounds (have %d windows)", from, to, len(f.windows))
	}
	var ids []eps.IDStats
	for _, id := range f.arch.Rules() {
		st, present, err := f.arch.RollUp(id, from, to)
		if err != nil {
			return nil, err
		}
		if present == 0 {
			continue
		}
		ids = append(ids, eps.IDStats{ID: id, Stats: st})
	}
	var n uint32
	for w := from; w <= to; w++ {
		n += f.windows[w].N
	}
	return eps.BuildSlice(from, n, ids, eps.Options{
		ContentIndex: f.cfg.ContentIndex,
		Dict:         f.ruleDict,
	})
}

// RecommendRollUp answers Q3 at coarse granularity: the stable region of the
// rolled-up period [from, to] around the request point.
func (f *Framework) RecommendRollUp(from, to int, minSupp, minConf float64) (eps.Region, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if err := f.checkGenThresholds(minSupp, minConf); err != nil {
		return eps.Region{}, err
	}
	slice, err := f.rollUpSliceLocked(from, to)
	if err != nil {
		return eps.Region{}, err
	}
	return slice.Region(minSupp, minConf), nil
}

// WindowStats is one drill-down row: a rule's statistics in one window.
type WindowStats struct {
	Window  int
	Period  txdb.Period
	Stats   rules.Stats
	Present bool
}

// DrillDown answers the finer-granularity direction of Q4: the per-window
// statistics of a rule across [from, to].
func (f *Framework) DrillDown(id rules.ID, from, to int) ([]WindowStats, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if from < 0 || to >= len(f.windows) || from > to {
		return nil, fmt.Errorf("tara: drill-down range [%d,%d] out of bounds (have %d windows)", from, to, len(f.windows))
	}
	if _, ok := f.ruleDict.Rule(id); !ok {
		return nil, fmt.Errorf("tara: unknown rule id %d", id)
	}
	out := make([]WindowStats, 0, to-from+1)
	for w := from; w <= to; w++ {
		st, ok := f.arch.StatsAt(id, w)
		out = append(out, WindowStats{Window: w, Period: f.windows[w].Period, Stats: st, Present: ok})
	}
	return out, nil
}

// Trajectory exposes the archive trajectory of a rule for evolution
// measures (Definition 10).
func (f *Framework) Trajectory(id rules.ID, from, to int) (archive.Trajectory, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.arch.Trajectory(id, from, to)
}

// RulesAbout answers Q5: rules mentioning all given item names that satisfy
// the setting in window w. It requires the framework to have been built
// with ContentIndex (the TARA-S configuration).
func (f *Framework) RulesAbout(w int, minSupp, minConf float64, names []string) ([]RuleView, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if err := f.checkGenThresholds(minSupp, minConf); err != nil {
		return nil, err
	}
	slice, err := f.index.Slice(w)
	if err != nil {
		return nil, err
	}
	items := make(itemset.Set, 0, len(names))
	for _, n := range names {
		it, ok := f.itemDict.Lookup(n)
		if !ok {
			// Unknown item: no rule can mention it.
			return nil, nil
		}
		items = append(items, it)
	}
	items = itemset.Canonicalize(items)
	ids, err := slice.RulesWithItems(minSupp, minConf, items)
	if err != nil {
		return nil, err
	}
	return f.materializeViews(ids, w)
}
