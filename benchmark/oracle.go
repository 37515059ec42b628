package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"

	"tara/internal/baselines"
	"tara/internal/mining"
	"tara/internal/query"
	"tara/internal/rules"
	"tara/internal/tara"
	"tara/internal/txdb"
)

// oracle decides whether a served answer is right. It compares decoded JSON,
// not bytes.
//
// /mine, /count, /diff and /trajectory are checked against DCTAR
// (internal/baselines) re-mining the raw windows of the TSV with FP-Growth —
// neither the knowledge base nor the miner the build used is involved. Each
// window is mined once, at the generation thresholds, and a request's answer
// is the subset meeting its own thresholds: mining at a higher support returns
// exactly that subset, so nothing is lost by not re-mining per request.
//
// Every other class is checked against query.Answer on the benchmark's own
// tara.Open of the knowledge-base file: independent of the daemon, its caches,
// its encoder and the wire, though not of the archive.
type oracle struct {
	sz      sizes
	fw      *tara.Framework
	dict    *txdb.Dict
	dctar   *baselines.DCTAR
	windows map[int]map[string]rules.Stats
}

func newOracle(tsvPath, kbPath string, sz sizes) (*oracle, error) {
	f, err := os.Open(tsvPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	db, err := txdb.Read(f)
	if err != nil {
		return nil, err
	}
	ws, err := db.PartitionByCount(sz.windows)
	if err != nil {
		return nil, err
	}
	fw, err := tara.Open(kbPath)
	if err != nil {
		return nil, fmt.Errorf("reopening %s: %w", kbPath, err)
	}
	return &oracle{
		sz: sz, fw: fw, dict: db.Dict,
		dctar:   baselines.NewDCTAR(ws, mining.FPGrowth{}, sz.maxLen),
		windows: map[int]map[string]rules.Stats{},
	}, nil
}

func (o *oracle) close() { o.fw.Close() }

func ruleKey(ant, cons []string) string {
	a := append([]string(nil), ant...)
	c := append([]string(nil), cons...)
	sort.Strings(a)
	sort.Strings(c)
	return strings.Join(a, ",") + "=>" + strings.Join(c, ",")
}

func names(d *txdb.Dict, items []uint32) []string {
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = d.Name(it)
	}
	return out
}

// window returns every rule DCTAR derives from window w at the generation
// thresholds, keyed by item names.
func (o *oracle) window(w int) (map[string]rules.Stats, error) {
	if m, ok := o.windows[w]; ok {
		return m, nil
	}
	rs, err := o.dctar.Mine(w, o.sz.genSupp, o.sz.genConf)
	if err != nil {
		return nil, err
	}
	m := make(map[string]rules.Stats, len(rs))
	for _, r := range rs {
		m[ruleKey(names(o.dict, r.Rule.Ant), names(o.dict, r.Rule.Cons))] = r.Stats
	}
	o.windows[w] = m
	return m, nil
}

// qualifying returns the rules of window w that meet (supp, conf).
func (o *oracle) qualifying(w int, supp, conf float64) (map[string]rules.Stats, error) {
	all, err := o.window(w)
	if err != nil {
		return nil, err
	}
	out := map[string]rules.Stats{}
	for k, st := range all {
		if st.Support() >= supp && st.Confidence() >= conf {
			out[k] = st
		}
	}
	return out, nil
}

// keyOfID names a knowledge-base rule id, for answers that carry only ids.
func (o *oracle) keyOfID(id uint32) (string, error) {
	r, ok := o.fw.RuleDict().Rule(rules.ID(id))
	if !ok {
		return "", fmt.Errorf("rule id %d is not in the knowledge base", id)
	}
	return ruleKey(names(o.fw.ItemDict(), r.Ant), names(o.fw.ItemDict(), r.Cons)), nil
}

// check reports why body is not the right answer to rq, or nil.
func (o *oracle) check(rq request, body []byte) error {
	q, err := query.FromValues(endpoint[rq.class].op, rq.values())
	if err != nil {
		return err
	}
	switch rq.class {
	case "mine":
		return o.checkMine(q, body)
	case "count":
		var res query.CountResult
		if err := json.Unmarshal(body, &res); err != nil {
			return err
		}
		want, err := o.qualifying(q.Window, q.MinSupp, q.MinConf)
		if err != nil {
			return err
		}
		if res.Count != len(want) {
			return fmt.Errorf("count %d, DCTAR derives %d", res.Count, len(want))
		}
		return nil
	case "diff":
		return o.checkDiff(q, body)
	case "trajectory":
		return o.checkTrajectory(q, body)
	}
	want, err := query.Answer(o.fw, q)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if sr, ok := want.(query.Streamer); ok {
		err = sr.StreamJSON(&buf)
	} else {
		err = json.NewEncoder(&buf).Encode(want)
	}
	if err != nil {
		return err
	}
	var a, b any
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("answer is not JSON: %w", err)
	}
	if err := json.Unmarshal(buf.Bytes(), &b); err != nil {
		return err
	}
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("answer differs from query.Answer on the reopened knowledge base")
	}
	return nil
}

// checkRows checks a page of rule rows against the qualifying set: the
// envelope's total is the set's size, the page has the length the limit
// allows, and each row is a distinct member with DCTAR's counts.
func checkRows(q query.Query, want map[string]rules.Stats, total, count int, keys []string, stats func(i int) (rules.Stats, bool)) error {
	if total != len(want) {
		return fmt.Errorf("total %d, DCTAR derives %d", total, len(want))
	}
	lo, hi := q.Page(total)
	if count != hi-lo || len(keys) != count {
		return fmt.Errorf("page holds %d rows (count %d), want %d", len(keys), count, hi-lo)
	}
	seen := map[string]bool{}
	for i, k := range keys {
		st, ok := want[k]
		if !ok {
			return fmt.Errorf("rule %s does not qualify according to DCTAR", k)
		}
		if seen[k] {
			return fmt.Errorf("rule %s is listed twice", k)
		}
		seen[k] = true
		if got, check := stats(i); check && got != st {
			return fmt.Errorf("rule %s has counts %+v, DCTAR counts %+v", k, got, st)
		}
	}
	return nil
}

func (o *oracle) checkMine(q query.Query, body []byte) error {
	var res query.MineResult
	if err := json.Unmarshal(body, &res); err != nil {
		return err
	}
	want, err := o.qualifying(q.Window, q.MinSupp, q.MinConf)
	if err != nil {
		return err
	}
	keys := make([]string, len(res.Rules))
	for i, r := range res.Rules {
		keys[i] = ruleKey(r.Antecedent, r.Consequent)
	}
	return checkRows(q, want, res.Total, res.Count, keys, func(i int) (rules.Stats, bool) {
		r := res.Rules[i]
		st := rules.Stats{CountXY: r.CountXY, CountX: r.CountX, CountY: r.CountY, N: r.N}
		if r.Support != st.Support() || r.Confidence != st.Confidence() || r.Lift != st.Lift() {
			st = rules.Stats{} // measures that contradict the row's own counts fail the comparison
		}
		return st, true
	})
}

func (o *oracle) checkDiff(q query.Query, body []byte) error {
	var res query.DiffResult
	if err := json.Unmarshal(body, &res); err != nil {
		return err
	}
	if len(res.Windows) != len(q.Windows) {
		return fmt.Errorf("%d windows answered, %d asked", len(res.Windows), len(q.Windows))
	}
	for i, dw := range res.Windows {
		if dw.Window != q.Windows[i] {
			return fmt.Errorf("window %d answered in place of %d", dw.Window, q.Windows[i])
		}
		all, err := o.window(dw.Window)
		if err != nil {
			return err
		}
		wantA, wantB := map[string]bool{}, map[string]bool{}
		for k, st := range all {
			inA := st.Support() >= q.MinSupp && st.Confidence() >= q.MinConf
			inB := st.Support() >= q.MinSupp2 && st.Confidence() >= q.MinConf2
			if inA && !inB {
				wantA[k] = true
			}
			if inB && !inA {
				wantB[k] = true
			}
		}
		for _, side := range []struct {
			name string
			ids  []uint32
			want map[string]bool
		}{{"onlyA", dw.OnlyA, wantA}, {"onlyB", dw.OnlyB, wantB}} {
			if len(side.ids) != len(side.want) {
				return fmt.Errorf("window %d %s has %d rules, DCTAR derives %d", dw.Window, side.name, len(side.ids), len(side.want))
			}
			seen := map[string]bool{}
			for _, id := range side.ids {
				k, err := o.keyOfID(id)
				if err != nil {
					return err
				}
				if !side.want[k] || seen[k] {
					return fmt.Errorf("window %d %s lists %s, which DCTAR does not (or lists it twice)", dw.Window, side.name, k)
				}
				seen[k] = true
			}
		}
	}
	return nil
}

func (o *oracle) checkTrajectory(q query.Query, body []byte) error {
	var res query.TrajectoryResult
	if err := json.Unmarshal(body, &res); err != nil {
		return err
	}
	want, err := o.qualifying(q.Window, q.MinSupp, q.MinConf)
	if err != nil {
		return err
	}
	keys := make([]string, len(res.Rules))
	for i, r := range res.Rules {
		keys[i] = ruleKey(r.Antecedent, r.Consequent)
	}
	if err := checkRows(q, want, res.Total, res.Count, keys, func(int) (rules.Stats, bool) { return rules.Stats{}, false }); err != nil {
		return err
	}
	// A rule is archived in a window exactly when it met the generation
	// thresholds there, which is what DCTAR's per-window set holds.
	for i, r := range res.Rules {
		if len(r.Points) != len(q.Windows) {
			return fmt.Errorf("rule %s has %d points, %d windows asked", keys[i], len(r.Points), len(q.Windows))
		}
		for j, p := range r.Points {
			all, err := o.window(p.Window)
			if err != nil {
				return err
			}
			st, present := all[keys[i]]
			if p.Window != q.Windows[j] || p.Present != present || (present && (p.Support != st.Support() || p.Confidence != st.Confidence())) {
				return fmt.Errorf("rule %s in window %d: got %+v, DCTAR present=%v %+v", keys[i], q.Windows[j], p, present, st)
			}
		}
	}
	return nil
}
