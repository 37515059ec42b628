package query

import (
	"fmt"

	"tara/internal/obs"
	"tara/internal/rules"
	"tara/internal/tara"
	"tara/internal/traj"
)

// Structured, JSON-serializable answers for every query class. Answer is the
// one place a class is executed: the tarad daemon encodes its typed values as
// JSON, and Execute renders the same values as the CLI's text.

// Setting is one (minsupp, minconf) request point.
type Setting struct {
	MinSupp float64 `json:"minSupp"`
	MinConf float64 `json:"minConf"`
}

// CountResult answers count requests: the qualifying ruleset's cardinality.
type CountResult struct {
	Window  int     `json:"window"`
	MinSupp float64 `json:"minSupp"`
	MinConf float64 `json:"minConf"`
	Count   int     `json:"count"`
}

// MineResult is the decoded JSON shape of mine and about answers. The server
// encodes those answers through MineStream (same fields, streamed rows); this
// struct is the client-side mirror for unmarshalling.
type MineResult struct {
	Window int        `json:"window"`
	Total  int        `json:"total"`
	Offset int        `json:"offset"`
	Count  int        `json:"count"`
	Rules  []RuleJSON `json:"rules"`
}

// TrajectoryPoint is one examined window of a rule trajectory.
type TrajectoryPoint struct {
	Window     int     `json:"window"`
	Present    bool    `json:"present"`
	Support    float64 `json:"support"`
	Confidence float64 `json:"confidence"`
}

// TrajectoryRule is one Q1 answer row.
type TrajectoryRule struct {
	ID         uint32            `json:"id"`
	Antecedent []string          `json:"antecedent"`
	Consequent []string          `json:"consequent"`
	Points     []TrajectoryPoint `json:"points"`
}

// TrajectoryResult answers trajectory requests.
type TrajectoryResult struct {
	Window int              `json:"window"`
	Total  int              `json:"total"`
	Offset int              `json:"offset"`
	Count  int              `json:"count"`
	Rules  []TrajectoryRule `json:"rules"`
}

// DiffWindow is one window of a Q2 comparison.
type DiffWindow struct {
	Window int      `json:"window"`
	OnlyA  []uint32 `json:"onlyA"`
	OnlyB  []uint32 `json:"onlyB"`
}

// DiffResult answers compare requests.
type DiffResult struct {
	A       Setting      `json:"a"`
	B       Setting      `json:"b"`
	Windows []DiffWindow `json:"windows"`
}

// RegionResult answers recommend requests (Q3): the time-aware stable region.
// A request with a lift filter adds Lift, and NumRules and Empty then count
// the rules that pass the filter.
type RegionResult struct {
	Window   int         `json:"window"`
	Empty    bool        `json:"empty"`
	LowSupp  float64     `json:"lowSupp"`
	HighSupp float64     `json:"highSupp"`
	LowConf  float64     `json:"lowConf"`
	HighConf float64     `json:"highConf"`
	CutSupp  float64     `json:"cutSupp"`
	CutConf  float64     `json:"cutConf"`
	NumRules int         `json:"numRules"`
	Lift     *LiftBounds `json:"lift,omitempty"`
}

// LiftBounds is the lift interval (Low, High] of a filtered recommend answer:
// every lift filter in it, at every point of the 2-D region, selects the same
// rules. High is nil (JSON null) when no rule reaches the filter, since then
// every larger filter selects none either.
type LiftBounds struct {
	Low  float64  `json:"low"`
	High *float64 `json:"high"`
}

// RollUpRow is one rule of a coarse-period answer.
type RollUpRow struct {
	RuleJSON
	Present         int     `json:"presentWindows"`
	MaxSupportError float64 `json:"maxSupportError"`
}

// RollUpResult answers rollup requests (Q4 up).
type RollUpResult struct {
	From   int         `json:"from"`
	To     int         `json:"to"`
	Total  int         `json:"total"`
	Offset int         `json:"offset"`
	Count  int         `json:"count"`
	Rules  []RollUpRow `json:"rules"`
}

// DrillRow is one window of a drill-down answer.
type DrillRow struct {
	Window     int     `json:"window"`
	Start      int64   `json:"start"`
	End        int64   `json:"end"`
	Present    bool    `json:"present"`
	Support    float64 `json:"support"`
	Confidence float64 `json:"confidence"`
}

// DrillResult answers drill requests (Q4 down).
type DrillResult struct {
	RuleID     uint32     `json:"ruleId"`
	Antecedent []string   `json:"antecedent"`
	Consequent []string   `json:"consequent"`
	Windows    []DrillRow `json:"windows"`
}

// RankRow is one ranked rule of an evolution-measure answer.
type RankRow struct {
	ID         uint32   `json:"id"`
	Antecedent []string `json:"antecedent"`
	Consequent []string `json:"consequent"`
	Coverage   float64  `json:"coverage"`
	Stability  float64  `json:"stability"`
	StdDev     float64  `json:"stdDev"`
}

// RankResult answers rank requests.
type RankResult struct {
	From  int       `json:"from"`
	To    int       `json:"to"`
	By    string    `json:"by"`
	Rules []RankRow `json:"rules"`
}

// PeriodicRow is one rule of a periodicity answer.
type PeriodicRow struct {
	ID            uint32    `json:"id"`
	Antecedent    []string  `json:"antecedent"`
	Consequent    []string  `json:"consequent"`
	Period        int       `json:"period"`
	BestPhase     int       `json:"bestPhase"`
	PhasePresence []float64 `json:"phasePresence"`
	Score         float64   `json:"score"`
}

// PeriodicResult answers periodic requests.
type PeriodicResult struct {
	From  int           `json:"from"`
	To    int           `json:"to"`
	Rules []PeriodicRow `json:"rules"`
}

// PlotResult carries the textual parameter-space panorama.
type PlotResult struct {
	Window   int    `json:"window"`
	Panorama string `json:"panorama"`
}

// TopKRow is one ranked trajectory of a /topk answer, carrying the full
// aggregate vector so clients need no follow-up query per rule.
type TopKRow struct {
	ID         uint32   `json:"id"`
	Antecedent []string `json:"antecedent"`
	Consequent []string `json:"consequent"`
	Score      float64  `json:"score"`
	Coverage   float64  `json:"coverage"`
	Mean       float64  `json:"mean"`
	StdDev     float64  `json:"stdDev"`
	Stability  float64  `json:"stability"`
	Drift      float64  `json:"drift"`
}

// TopKResult answers topk requests.
type TopKResult struct {
	From   int       `json:"from"`
	To     int       `json:"to"`
	By     string    `json:"by"`
	K      int       `json:"k"`
	Total  int       `json:"total"`
	Offset int       `json:"offset"`
	Count  int       `json:"count"`
	Rules  []TopKRow `json:"rules"`
}

// SimilarRow is one neighbor of a /similar answer.
type SimilarRow struct {
	ID         uint32   `json:"id"`
	Antecedent []string `json:"antecedent"`
	Consequent []string `json:"consequent"`
	Distance   float64  `json:"distance"`
}

// SimilarResult answers similar requests. Pruned reports how many candidate
// rules the envelope lower bound eliminated without a distance computation.
type SimilarResult struct {
	From   int          `json:"from"`
	To     int          `json:"to"`
	Metric string       `json:"metric"`
	K      int          `json:"k"`
	Pruned int          `json:"pruned"`
	Total  int          `json:"total"`
	Offset int          `json:"offset"`
	Count  int          `json:"count"`
	Rules  []SimilarRow `json:"rules"`
}

// EmergingRow is one newly qualifying rule of an /emerging answer.
type EmergingRow struct {
	ID         uint32   `json:"id"`
	Antecedent []string `json:"antecedent"`
	Consequent []string `json:"consequent"`
	Support    float64  `json:"support"`
	Confidence float64  `json:"confidence"`
}

// EmergingResult answers emerging requests. To is the resolved last window
// (the latest committed window when the request used the -1 default).
type EmergingResult struct {
	From   int           `json:"from"`
	To     int           `json:"to"`
	Total  int           `json:"total"`
	Offset int           `json:"offset"`
	Count  int           `json:"count"`
	Rules  []EmergingRow `json:"rules"`
}

// itemNames resolves an itemset to dictionary names.
func itemNames(f *tara.Framework, items []uint32) []string {
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = f.ItemDict().Name(it)
	}
	return out
}

// Answer runs a parsed query against a framework and returns its structured
// result — the JSON body the daemon serves. Export is excluded: it writes
// local files and stays a CLI-only operation.
func Answer(f *tara.Framework, q Query) (any, error) {
	return AnswerTraced(f, q, nil)
}

// AnswerTraced is Answer with per-stage span recording on tr for the traced
// query classes (mine, count, recommend, compare); a nil trace makes it
// identical to Answer. The daemon passes each request's trace here.
func AnswerTraced(f *tara.Framework, q Query, tr *obs.Trace) (any, error) {
	switch q.Kind {
	case Mine:
		views, err := f.MineFilteredTraced(tr, q.Window, q.MinSupp, q.MinConf, q.MinLift)
		if err != nil {
			return nil, err
		}
		// Materialization is deferred to encode time: the stream converts
		// one reused row per rule, so the paged answer never pins a
		// whole-ruleset []RuleJSON.
		return NewMineStream(f, q, views), nil

	case Count:
		n, err := f.CountTraced(tr, q.Window, q.MinSupp, q.MinConf)
		if err != nil {
			return nil, err
		}
		return CountResult{Window: q.Window, MinSupp: q.MinSupp, MinConf: q.MinConf, Count: n}, nil

	case About:
		views, err := f.RulesAbout(q.Window, q.MinSupp, q.MinConf, q.Items)
		if err != nil {
			return nil, err
		}
		return NewMineStream(f, q, views), nil

	case Trajectory:
		trs, err := f.RuleTrajectories(q.Window, q.MinSupp, q.MinConf, q.Windows)
		if err != nil {
			return nil, err
		}
		lo, hi := q.Page(len(trs))
		res := TrajectoryResult{Window: q.Window, Total: len(trs), Offset: lo, Count: hi - lo, Rules: make([]TrajectoryRule, hi-lo)}
		for i, tr := range trs[lo:hi] {
			row := TrajectoryRule{
				ID:         uint32(tr.ID),
				Antecedent: itemNames(f, tr.Rule.Ant),
				Consequent: itemNames(f, tr.Rule.Cons),
				Points:     make([]TrajectoryPoint, len(tr.Windows)),
			}
			for j, win := range tr.Windows {
				row.Points[j] = TrajectoryPoint{
					Window:     win,
					Present:    tr.Present[j],
					Support:    tr.Stats[j].Support(),
					Confidence: tr.Stats[j].Confidence(),
				}
			}
			res.Rules[i] = row
		}
		return res, nil

	case Compare:
		diffs, err := f.CompareTraced(tr, q.Windows, q.MinSupp, q.MinConf, q.MinSupp2, q.MinConf2)
		if err != nil {
			return nil, err
		}
		res := DiffResult{
			A:       Setting{MinSupp: q.MinSupp, MinConf: q.MinConf},
			B:       Setting{MinSupp: q.MinSupp2, MinConf: q.MinConf2},
			Windows: make([]DiffWindow, len(diffs)),
		}
		for i, d := range diffs {
			dw := DiffWindow{Window: d.Window, OnlyA: make([]uint32, len(d.OnlyA)), OnlyB: make([]uint32, len(d.OnlyB))}
			for j, id := range d.OnlyA {
				dw.OnlyA[j] = uint32(id)
			}
			for j, id := range d.OnlyB {
				dw.OnlyB[j] = uint32(id)
			}
			res.Windows[i] = dw
		}
		return res, nil

	case Recommend:
		reg, err := f.RecommendTraced(tr, q.Window, q.MinSupp, q.MinConf)
		if err != nil {
			return nil, err
		}
		res := RegionResult{
			Window:   reg.Window,
			Empty:    reg.Empty,
			LowSupp:  reg.LowSupp,
			HighSupp: reg.HighSupp,
			LowConf:  reg.LowConf,
			HighConf: reg.HighConf,
			CutSupp:  reg.CutSupp,
			CutConf:  reg.CutConf,
			NumRules: reg.NumRules,
		}
		if q.MinLift > 0 {
			views, err := f.MineFilteredTraced(tr, q.Window, q.MinSupp, q.MinConf, 0)
			if err != nil {
				return nil, err
			}
			res.Lift, res.NumRules = liftBounds(views, q.MinLift)
			res.Empty = res.NumRules == 0
		}
		return res, nil

	case RollUp:
		out, err := f.MineRollUp(q.From, q.To, q.MinSupp, q.MinConf)
		if err != nil {
			return nil, err
		}
		lo, hi := q.Page(len(out))
		res := RollUpResult{From: q.From, To: q.To, Total: len(out), Offset: lo, Count: hi - lo, Rules: make([]RollUpRow, hi-lo)}
		for i, r := range out[lo:hi] {
			res.Rules[i] = RollUpRow{
				RuleJSON:        toRuleJSON(f, tara.RuleView{ID: r.ID, Rule: r.Rule, Stats: r.Stats}),
				Present:         r.Present,
				MaxSupportError: r.MaxSupportError,
			}
		}
		return res, nil

	case DrillDown:
		rows, err := f.DrillDown(rules.ID(q.RuleID), q.From, q.To)
		if err != nil {
			return nil, err
		}
		r, _ := f.RuleDict().Rule(rules.ID(q.RuleID))
		res := DrillResult{
			RuleID:     q.RuleID,
			Antecedent: itemNames(f, r.Ant),
			Consequent: itemNames(f, r.Cons),
			Windows:    make([]DrillRow, len(rows)),
		}
		for i, row := range rows {
			res.Windows[i] = DrillRow{
				Window:     row.Window,
				Start:      row.Period.Start,
				End:        row.Period.End,
				Present:    row.Present,
				Support:    row.Stats.Support(),
				Confidence: row.Stats.Confidence(),
			}
		}
		return res, nil

	case Rank:
		m, err := measureByName(q.Measure)
		if err != nil {
			return nil, err
		}
		out, err := f.RankEvolution(q.From, q.To, q.MinSupp, q.MinConf, m, 0.01, q.TopK)
		if err != nil {
			return nil, err
		}
		res := RankResult{From: q.From, To: q.To, By: q.Measure, Rules: make([]RankRow, len(out))}
		for i, s := range out {
			res.Rules[i] = RankRow{
				ID:         uint32(s.ID),
				Antecedent: itemNames(f, s.Rule.Ant),
				Consequent: itemNames(f, s.Rule.Cons),
				Coverage:   s.Coverage,
				Stability:  s.Stability,
				StdDev:     s.StdDev,
			}
		}
		return res, nil

	case Periodic:
		out, err := f.FindPeriodic(q.From, q.To, q.MinSupp, q.MinConf, q.Period, q.TopK)
		if err != nil {
			return nil, err
		}
		res := PeriodicResult{From: q.From, To: q.To, Rules: make([]PeriodicRow, len(out))}
		for i, s := range out {
			res.Rules[i] = PeriodicRow{
				ID:            uint32(s.ID),
				Antecedent:    itemNames(f, s.Rule.Ant),
				Consequent:    itemNames(f, s.Rule.Cons),
				Period:        s.Period,
				BestPhase:     s.BestPhase,
				PhasePresence: s.PhasePresence,
				Score:         s.Score,
			}
		}
		return res, nil

	case Plot:
		slice, err := f.Index().Slice(q.Window)
		if err != nil {
			return nil, err
		}
		return PlotResult{Window: q.Window, Panorama: slice.Panorama(60, 16, q.MinSupp, q.MinConf)}, nil

	case TopK:
		m, err := traj.MeasureByName(q.Measure)
		if err != nil {
			return nil, err
		}
		out, err := f.TopKTrajectoriesTraced(tr, q.From, q.To, q.MinSupp, q.MinConf, m, q.TopK)
		if err != nil {
			return nil, err
		}
		lo, hi := q.Page(len(out))
		res := TopKResult{From: q.From, To: q.To, By: m.String(), K: q.TopK,
			Total: len(out), Offset: lo, Count: hi - lo, Rules: make([]TopKRow, hi-lo)}
		for i, s := range out[lo:hi] {
			res.Rules[i] = TopKRow{
				ID:         uint32(s.ID),
				Antecedent: itemNames(f, s.Rule.Ant),
				Consequent: itemNames(f, s.Rule.Cons),
				Score:      s.Score,
				Coverage:   s.Agg.Coverage,
				Mean:       s.Agg.Mean,
				StdDev:     s.Agg.StdDev,
				Stability:  s.Agg.Stability,
				Drift:      s.Agg.Drift,
			}
		}
		return res, nil

	case Similar:
		m, err := traj.MetricByName(q.Metric)
		if err != nil {
			return nil, err
		}
		out, pruned, err := f.SimilarTrajectoriesTraced(tr, q.From, q.To, q.Ref, m, q.MinSupp, q.MinConf, q.TopK)
		if err != nil {
			return nil, err
		}
		lo, hi := q.Page(len(out))
		res := SimilarResult{From: q.From, To: q.To, Metric: m.String(), K: q.TopK, Pruned: pruned,
			Total: len(out), Offset: lo, Count: hi - lo, Rules: make([]SimilarRow, hi-lo)}
		for i, s := range out[lo:hi] {
			res.Rules[i] = SimilarRow{
				ID:         uint32(s.ID),
				Antecedent: itemNames(f, s.Rule.Ant),
				Consequent: itemNames(f, s.Rule.Cons),
				Distance:   s.Distance,
			}
		}
		return res, nil

	case Emerging:
		out, err := f.EmergingRulesTraced(tr, q.From, q.To, q.MinSupp, q.MinConf)
		if err != nil {
			return nil, err
		}
		to := q.To
		if to == -1 {
			to = f.Windows() - 1
		}
		lo, hi := q.Page(len(out))
		res := EmergingResult{From: q.From, To: to,
			Total: len(out), Offset: lo, Count: hi - lo, Rules: make([]EmergingRow, hi-lo)}
		for i, s := range out[lo:hi] {
			res.Rules[i] = EmergingRow{
				ID:         uint32(s.ID),
				Antecedent: itemNames(f, s.Rule.Ant),
				Consequent: itemNames(f, s.Rule.Cons),
				Support:    s.Support,
				Confidence: s.Confidence,
			}
		}
		return res, nil

	case Export:
		return nil, fmt.Errorf("query: export is a CLI-only operation")

	default:
		return nil, fmt.Errorf("query: unsupported kind %d", q.Kind)
	}
}

// measureByName maps the textual evolution measure to its enum.
func measureByName(name string) (tara.EvolutionMeasure, error) {
	switch name {
	case "stability", "":
		return tara.ByStability, nil
	case "coverage":
		return tara.ByCoverage, nil
	case "volatility":
		return tara.ByVolatility, nil
	default:
		return 0, fmt.Errorf("query: unknown measure %q (want stability, coverage or volatility)", name)
	}
}

// liftBounds turns a lift filter into an interval over the 2-D stable
// region. views is the unfiltered answer, which Lemma 4 fixes across the
// region. No rule's lift lies strictly between Low (the largest lift below
// minLift, or 0) and High (the smallest at or above it), so every filter in
// (Low, High] keeps the same rules. n counts the rules minLift keeps.
func liftBounds(views []tara.RuleView, minLift float64) (b *LiftBounds, n int) {
	b = &LiftBounds{}
	for _, v := range views {
		l := v.Lift()
		if l < minLift {
			b.Low = max(b.Low, l)
			continue
		}
		n++
		if b.High == nil || l < *b.High {
			b.High = &l
		}
	}
	return b, n
}
