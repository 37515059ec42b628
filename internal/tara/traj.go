package tara

import (
	"fmt"
	"math"

	"tara/internal/obs"
	"tara/internal/rules"
	"tara/internal/traj"
)

// The trajectory query classes (/rank, /topk, /similar, /emerging) answered
// from the columnar trajectory engine. The framework keeps at most one columnar
// snapshot — the window-major transpose of the archive — cached next to the
// knowledge base, stamped with the KB generation that produced it. Windows
// are append-only, so the snapshot is either current or discarded whole:
// queries rebuild it lazily under trajMu when the generation moves (one
// batch decode pass), and every trajectory query of the same generation
// shares it. Lock order is f.mu (read) then f.trajMu; appends take f.mu for
// writing and never touch trajMu, so the order is deadlock-free.

// trajStabilityEps is the adjacent-support-delta tolerance of the stability
// aggregate, matching the eps the rank query class has always used.
const trajStabilityEps = 0.01

// trajSnapshotLocked returns the columnar snapshot for the current KB
// generation, rebuilding it if stale; callers hold f.mu for reading (which
// excludes appends, so the archive cannot move mid-build). The windows
// check backs up the generation check: a commit bumps the generation after
// releasing the write lock, so for one tiny interval the archive can be
// ahead of the counter.
func (f *Framework) trajSnapshotLocked(tr *obs.Trace) (*traj.Snapshot, error) {
	f.trajMu.Lock()
	defer f.trajMu.Unlock()
	if s := f.trajSnap; s != nil && s.Gen == f.genCtr.Load() && s.Windows() == len(f.windows) {
		return s, nil
	}
	sp := tr.Start(obs.StageSnapshot)
	s, err := traj.Build(f.arch)
	sp.End()
	if err != nil {
		return nil, err
	}
	// Stamp with the generation read after the build: the archive state we
	// decoded includes at least every window that bumped the counter so far.
	s.Gen = f.genCtr.Load()
	f.trajSnap = s
	f.trajRebuilds.Add(1)
	return s, nil
}

// trajAggValue is the query-cache payload of a trajectory aggregate matrix:
// the snapshot it was computed from pins its validity (same generation →
// same rows), so invalidation is the pointer comparison rather than a
// per-window sweep.
type trajAggValue struct {
	snap *traj.Snapshot
	aggs []traj.Aggregates
}

// trajAggregatesLocked returns the per-rule aggregate matrix over [from, to],
// memoized in the query cache under (range, eps): different /topk parameter
// settings over the same range share one columnar pass. Callers hold f.mu
// for reading.
func (f *Framework) trajAggregatesLocked(tr *obs.Trace, s *traj.Snapshot, from, to int, eps float64) ([]traj.Aggregates, error) {
	if f.qcache == nil {
		sp := tr.Start(obs.StageColumnarScan)
		aggs, err := s.AggregateRange(from, to, eps)
		sp.End()
		return aggs, err
	}
	k := cacheKey{window: -1, class: classTraj, a: cutKey(from, to), b: math.Float64bits(eps)}
	sp := tr.Start(obs.StageCacheProbe)
	v, ok := f.qcache.get(k)
	sp.End()
	if ok {
		if tv := v.(trajAggValue); tv.snap == s {
			return tv.aggs, nil
		}
	}
	sp = tr.Start(obs.StageColumnarScan)
	aggs, err := s.AggregateRange(from, to, eps)
	sp.End()
	if err != nil {
		return nil, err
	}
	f.qcache.Put(k, trajAggValue{snap: s, aggs: aggs})
	return aggs, nil
}

// TrajRank is one row of a top-K trajectory ranking answer.
type TrajRank struct {
	ID    rules.ID
	Rule  rules.Rule
	Score float64
	Agg   traj.Aggregates
}

// TopKTrajectories ranks the rules qualifying in at least one window of
// [from, to] by the given trajectory measure over the columnar snapshot,
// returning the k best (score descending, rule id ascending on ties).
func (f *Framework) TopKTrajectories(from, to int, minSupp, minConf float64, m traj.Measure, k int) ([]TrajRank, error) {
	return f.TopKTrajectoriesTraced(nil, from, to, minSupp, minConf, m, k)
}

// TopKTrajectoriesTraced is TopKTrajectories with per-stage span recording.
func (f *Framework) TopKTrajectoriesTraced(tr *obs.Trace, from, to int, minSupp, minConf float64, m traj.Measure, k int) ([]TrajRank, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.rankLocked(tr, from, to, minSupp, minConf, m, trajStabilityEps, k)
}

// rankLocked is the one ranking engine behind TopKTrajectories and
// RankEvolution: the (memoized) aggregate matrix of [from, to] at stability
// tolerance eps, ranked by m through the bounded heap. Callers hold f.mu for
// reading.
func (f *Framework) rankLocked(tr *obs.Trace, from, to int, minSupp, minConf float64, m traj.Measure, eps float64, k int) ([]TrajRank, error) {
	if err := f.checkGenThresholds(minSupp, minConf); err != nil {
		return nil, err
	}
	s, err := f.trajSnapshotLocked(tr)
	if err != nil {
		return nil, err
	}
	aggs, err := f.trajAggregatesLocked(tr, s, from, to, eps)
	if err != nil {
		return nil, err
	}
	sp := tr.Start(obs.StageColumnarScan)
	ranked, err := s.TopK(aggs, from, to, minSupp, minConf, m, k)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = tr.Start(obs.StageMaterialize)
	defer sp.End()
	out := make([]TrajRank, len(ranked))
	for i, c := range ranked {
		r, ok := f.ruleDict.Rule(c.ID)
		if !ok {
			return nil, fmt.Errorf("tara: unknown rule id %d", c.ID)
		}
		out[i] = TrajRank{ID: c.ID, Rule: r, Score: c.Score, Agg: c.Agg}
	}
	return out, nil
}

// EvolutionMeasure selects how EvolutionSummaries are ranked.
type EvolutionMeasure int

const (
	// ByStability ranks most-stable first (highest fraction of small
	// support deltas).
	ByStability EvolutionMeasure = iota
	// ByCoverage ranks rules present in the most windows first.
	ByCoverage
	// ByVolatility ranks the most fluctuating rules first (highest support
	// standard deviation) — the "most significant change" exploration.
	ByVolatility
)

// EvolutionSummary scores one rule's behaviour across a window range.
type EvolutionSummary struct {
	ID        rules.ID
	Rule      rules.Rule
	Coverage  float64
	Stability float64
	StdDev    float64
}

// RankEvolution finds rules satisfying the setting in at least one window of
// [from, to] and ranks them by the chosen evolution measure, returning the
// top k (all if k <= 0). stabilityEps is the support-delta tolerance used by
// the stability measure. It is TopKTrajectories with a caller-chosen
// tolerance, restricted to the three measures of Definition 10.
func (f *Framework) RankEvolution(from, to int, minSupp, minConf float64, m EvolutionMeasure, stabilityEps float64, k int) ([]EvolutionSummary, error) {
	tm := traj.ByStability
	switch m {
	case ByCoverage:
		tm = traj.ByCoverage
	case ByVolatility:
		tm = traj.ByVolatility
	}
	if k <= 0 {
		k = math.MaxInt
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	ranked, err := f.rankLocked(nil, from, to, minSupp, minConf, tm, stabilityEps, k)
	if err != nil {
		return nil, err
	}
	out := make([]EvolutionSummary, len(ranked))
	for i, r := range ranked {
		out[i] = EvolutionSummary{ID: r.ID, Rule: r.Rule, Coverage: r.Agg.Coverage, Stability: r.Agg.Stability, StdDev: r.Agg.StdDev}
	}
	return out, nil
}

// TrajNeighbor is one row of a trajectory similarity answer.
type TrajNeighbor struct {
	ID       rules.ID
	Rule     rules.Rule
	Distance float64
}

// SimilarTrajectories returns the k rules whose support series over
// [from, to] is nearest to the reference profile (one value per window of
// the range), distance ascending. minSupp/minConf of zero mean "every rule
// archived in the range"; nonzero thresholds restrict the candidate set and
// must meet the generation thresholds, like any other setting. pruned
// reports how many candidates the envelope lower bound skipped without a
// full distance computation.
func (f *Framework) SimilarTrajectories(from, to int, ref []float64, metric traj.Metric, minSupp, minConf float64, k int) ([]TrajNeighbor, int, error) {
	return f.SimilarTrajectoriesTraced(nil, from, to, ref, metric, minSupp, minConf, k)
}

// SimilarTrajectoriesTraced is SimilarTrajectories with span recording.
func (f *Framework) SimilarTrajectoriesTraced(tr *obs.Trace, from, to int, ref []float64, metric traj.Metric, minSupp, minConf float64, k int) ([]TrajNeighbor, int, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if minSupp != 0 || minConf != 0 {
		if err := f.checkGenThresholds(minSupp, minConf); err != nil {
			return nil, 0, err
		}
	}
	s, err := f.trajSnapshotLocked(tr)
	if err != nil {
		return nil, 0, err
	}
	sp := tr.Start(obs.StageColumnarScan)
	near, pruned, err := s.Similar(from, to, ref, metric, minSupp, minConf, k)
	sp.End()
	if err != nil {
		return nil, 0, err
	}
	sp = tr.Start(obs.StageMaterialize)
	defer sp.End()
	out := make([]TrajNeighbor, len(near))
	for i, n := range near {
		r, ok := f.ruleDict.Rule(n.ID)
		if !ok {
			return nil, 0, fmt.Errorf("tara: unknown rule id %d", n.ID)
		}
		out[i] = TrajNeighbor{ID: n.ID, Rule: r, Distance: n.Distance}
	}
	return out, pruned, nil
}

// TrajEmergent is one row of an emergence answer: a rule that newly crossed
// the threshold in the range's last window.
type TrajEmergent struct {
	ID         rules.ID
	Rule       rules.Rule
	Support    float64
	Confidence float64
}

// EmergingRules returns the rules qualifying in window `to` but in no
// earlier window of [from, to] — the signal-detection question. to == -1
// selects the latest window. Results are ordered support descending.
func (f *Framework) EmergingRules(from, to int, minSupp, minConf float64) ([]TrajEmergent, error) {
	return f.EmergingRulesTraced(nil, from, to, minSupp, minConf)
}

// EmergingRulesTraced is EmergingRules with span recording.
func (f *Framework) EmergingRulesTraced(tr *obs.Trace, from, to int, minSupp, minConf float64) ([]TrajEmergent, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if err := f.checkGenThresholds(minSupp, minConf); err != nil {
		return nil, err
	}
	if to == -1 {
		to = len(f.windows) - 1
	}
	s, err := f.trajSnapshotLocked(tr)
	if err != nil {
		return nil, err
	}
	sp := tr.Start(obs.StageColumnarScan)
	em, err := s.Emerging(from, to, minSupp, minConf)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = tr.Start(obs.StageMaterialize)
	defer sp.End()
	out := make([]TrajEmergent, len(em))
	for i, e := range em {
		r, ok := f.ruleDict.Rule(e.ID)
		if !ok {
			return nil, fmt.Errorf("tara: unknown rule id %d", e.ID)
		}
		out[i] = TrajEmergent{ID: e.ID, Rule: r, Support: e.Support, Confidence: e.Confidence}
	}
	return out, nil
}

// TrajStats is a point-in-time view of the columnar trajectory snapshot,
// surfaced on /metrics.
type TrajStats struct {
	// Built reports whether a snapshot currently exists.
	Built bool `json:"built"`
	// Generation is the KB generation the snapshot was built from.
	Generation uint64 `json:"generation"`
	Windows    int    `json:"windows"`
	Rules      int    `json:"rules"`
	// Entries is the number of (rule, window) records decoded at build.
	Entries int `json:"entries"`
	// MemBytes is the snapshot's estimated resident size.
	MemBytes int `json:"memBytes"`
	// Rebuilds counts snapshot builds over the framework's lifetime.
	Rebuilds uint64 `json:"rebuilds"`
}

// TrajStats snapshots the columnar engine's state. It takes only trajMu and
// is safe concurrent with queries and appends.
func (f *Framework) TrajStats() TrajStats {
	f.trajMu.Lock()
	s := f.trajSnap
	f.trajMu.Unlock()
	st := TrajStats{Rebuilds: f.trajRebuilds.Load()}
	if s != nil {
		st.Built = true
		st.Generation = s.Gen
		st.Windows = s.Windows()
		st.Rules = s.Rules()
		st.Entries = s.Entries()
		st.MemBytes = s.MemBytes()
	}
	return st
}
