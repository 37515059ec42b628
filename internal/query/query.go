// Package query defines the typed exploration queries of the TARA Online
// Explorer and a small textual syntax for them, used by the cmd/tara CLI.
//
// Syntax (key=value fields, whitespace separated; one line per row of the
// Classes table in class.go, which is where a class's name, aliases, HTTP
// route and this synopsis are declared):
//
//	mine      w=0 supp=0.01 conf=0.2 [lift=1.5]
//	count     w=0 supp=0.01 conf=0.2
//	traj      w=3 supp=0.01 conf=0.2 in=0,1,2
//	compare   w=0,1,2,3 a=0.01,0.2 b=0.05,0.3
//	recommend w=0 supp=0.01 conf=0.2 [lift=1.5]
//	rollup    from=0 to=3 supp=0.01 conf=0.2
//	drill     rule=12 from=0 to=3
//	about     w=0 supp=0.01 conf=0.2 items=milk,bread
//	rank      from=0 to=3 supp=0.01 conf=0.2 [by=stability|coverage|volatility] [k=10]
//	periodic  from=0 to=8 supp=0.01 conf=0.2 period=7 [k=10]
//	plot      w=0 [supp=0.01 conf=0.2]
//	export    w=0 supp=0.01 conf=0.2 file=rules.csv [format=csv|json]
//	topk      from=0 to=3 supp=0.01 conf=0.2 [by=stability|drift|volatility|coverage] [k=10]
//	similar   from=0 to=3 ref=0.1,0.2,0.15,0.2 [metric=euclid|max] [supp=0 conf=0] [k=10]
//	emerging  from=0 supp=0.01 conf=0.2 [to=5]
//
// rank and the last three are answered from the columnar trajectory engine
// (the window-major snapshot of internal/traj) rather than per-rule decodes.
// The rule-list classes also take limit= and offset=.
//
// Every class has one path from a parsed Query to its answer: AnswerTraced
// computes the typed result the daemon encodes as JSON, and Execute renders
// that same result as the CLI's text.
package query

import (
	"fmt"
	"math"
	"net/url"
	"strconv"
	"strings"

	"tara/internal/traj"
)

// Kind enumerates the supported exploration operations.
type Kind int

const (
	// Mine is the traditional mining request (the base of Q1).
	Mine Kind = iota
	// Count reports the qualifying ruleset's cardinality without
	// materializing it — the cheapest probe of a parameter setting.
	Count
	// Trajectory is Q1: mine one window, examine others.
	Trajectory
	// Compare is Q2: evolving ruleset comparison.
	Compare
	// Recommend is Q3: stable-region parameter recommendation.
	Recommend
	// RollUp is the coarse-granularity mining request (Q4 up).
	RollUp
	// DrillDown is the fine-granularity examination (Q4 down).
	DrillDown
	// About is Q5: content-based exploration.
	About
	// Rank is the evolution-measure ranking exploration.
	Rank
	// Periodic is the cyclic-qualification exploration.
	Periodic
	// Plot renders the parameter-space panorama of a window.
	Plot
	// Export writes a window's qualifying ruleset to a file.
	Export
	// TopK ranks trajectories over a window range by a columnar measure.
	TopK
	// Similar searches for the trajectories nearest a reference profile.
	Similar
	// Emerging reports the rules newly crossing the threshold in the
	// range's last window.
	Emerging
)

// Query is one parsed exploration request.
type Query struct {
	Kind     Kind
	Window   int
	Windows  []int
	From, To int
	MinSupp  float64
	MinConf  float64
	MinSupp2 float64
	MinConf2 float64
	Items    []string
	RuleID   uint32
	Measure  string
	TopK     int
	Period   int
	MinLift  float64
	File     string
	Format   string
	// Ref is the similarity query's reference support profile, one value
	// per window of [From, To].
	Ref []float64
	// Metric names the similarity distance ("euclid" or "max").
	Metric string
	// Limit and Offset paginate the rule-list answers (mine, about,
	// trajectory, rollup, export): the answer covers rows
	// [Offset, Offset+Limit) of the full qualifying set, and the envelope
	// reports the unpaginated total. Limit 0 means "to the end".
	Limit  int
	Offset int
}

// Page clips the [Offset, Offset+Limit) request window to a result of n rows,
// returning the half-open row range [lo, hi) to serve. An offset past the end
// yields an empty page; a zero limit runs to the end.
func (q Query) Page(n int) (lo, hi int) {
	lo = q.Offset
	if lo > n {
		lo = n
	}
	hi = n
	if q.Limit > 0 && lo+q.Limit < hi {
		hi = lo + q.Limit
	}
	return lo, hi
}

// Parse parses one query line.
func Parse(line string) (Query, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return Query{}, fmt.Errorf("query: empty input")
	}
	kv := map[string]string{}
	for _, f := range fields[1:] {
		eq := strings.IndexByte(f, '=')
		if eq <= 0 {
			return Query{}, fmt.Errorf("query: malformed field %q (want key=value)", f)
		}
		kv[f[:eq]] = f[eq+1:]
	}
	return build(fields[0], kv)
}

// FromValues decodes a query from URL parameters — the same keys the textual
// syntax uses (`w`, `supp`, `conf`, ...) — so HTTP handlers and the CLI share
// one decoder. Repeated parameters take the first value.
func FromValues(op string, values url.Values) (Query, error) {
	kv := make(map[string]string, len(values))
	for k, vs := range values {
		if len(vs) > 0 {
			kv[k] = vs[0]
		}
	}
	return build(op, kv)
}

// build decodes and validates the shared key=value form of a query.
func build(op string, kv map[string]string) (Query, error) {
	c, ok := classByName(op)
	if !ok {
		return Query{}, fmt.Errorf("query: unknown operation %q", op)
	}
	q := Query{Kind: c.Kind}
	var err error
	// param returns a parameter's text. It reports false when the parameter
	// is absent — an error if it is required — and once an earlier parameter
	// has failed, so the first error wins.
	param := func(key string, required bool) (string, bool) {
		v, ok := kv[key]
		if err == nil && !ok && required {
			err = fmt.Errorf("query: missing %s=", key)
		}
		return v, ok && err == nil
	}
	getF := func(key string, dst *float64, required bool) {
		if v, ok := param(key, required); ok {
			*dst, err = scalar(key, v, parseFloat)
		}
	}
	getI := func(key string, dst *int, required bool) {
		if v, ok := param(key, required); ok {
			*dst, err = scalar(key, v, strconv.Atoi)
		}
	}
	getIs := func(key string, dst *[]int, required bool) {
		if v, ok := param(key, required); ok {
			*dst, err = list(key, v, strconv.Atoi)
		}
	}
	getFs := func(key string, dst *[]float64, required bool) {
		if v, ok := param(key, required); ok {
			*dst, err = list(key, v, parseFloat)
		}
	}
	getPair := func(key string, s, c *float64) {
		v, ok := param(key, false)
		switch {
		case err != nil:
		case !ok:
			err = fmt.Errorf("query: missing %s=supp,conf", key)
		case strings.Count(v, ",") != 1:
			err = fmt.Errorf("query: %s wants supp,conf", key)
		default:
			var pair []float64
			if pair, err = list(key, v, parseFloat); err == nil {
				*s, *c = pair[0], pair[1]
			}
		}
	}
	// getPage decodes the shared limit/offset pagination parameters. The
	// values feed slice arithmetic and cache keys, so anything that is not a
	// plain non-negative integer fitting in int32 is rejected up front with a
	// typed error — mirroring the NaN/Inf threshold validation below.
	getPage := func() {
		page := func(key string, dst *int) {
			v, ok := param(key, false)
			if !ok {
				return
			}
			n, e := strconv.Atoi(v)
			if e != nil || n < 0 || n > math.MaxInt32 {
				err = fmt.Errorf("query: %s %q must be an integer in [0, %d]", key, v, math.MaxInt32)
				return
			}
			*dst = n
		}
		page("limit", &q.Limit)
		page("offset", &q.Offset)
	}

	switch q.Kind {
	case Mine:
		getI("w", &q.Window, true)
		getF("supp", &q.MinSupp, true)
		getF("conf", &q.MinConf, true)
		getF("lift", &q.MinLift, false)
		getPage()
	case Recommend:
		getI("w", &q.Window, true)
		getF("supp", &q.MinSupp, true)
		getF("conf", &q.MinConf, true)
		getF("lift", &q.MinLift, false)
	case Count:
		getI("w", &q.Window, true)
		getF("supp", &q.MinSupp, true)
		getF("conf", &q.MinConf, true)
	case Trajectory:
		getI("w", &q.Window, true)
		getF("supp", &q.MinSupp, true)
		getF("conf", &q.MinConf, true)
		getIs("in", &q.Windows, true)
		getPage()
	case Compare:
		getIs("w", &q.Windows, true)
		getPair("a", &q.MinSupp, &q.MinConf)
		getPair("b", &q.MinSupp2, &q.MinConf2)
	case RollUp:
		getI("from", &q.From, true)
		getI("to", &q.To, true)
		getF("supp", &q.MinSupp, true)
		getF("conf", &q.MinConf, true)
		getPage()
	case DrillDown:
		// Rule ids are uint32: a value outside that range is an error, never
		// another rule's id.
		if v, ok := param("rule", true); ok {
			id, e := strconv.ParseUint(v, 10, 32)
			if e != nil {
				err = fmt.Errorf("query: rule %q must be an integer in [0, %d]", v, uint32(math.MaxUint32))
			}
			q.RuleID = uint32(id)
		}
		getI("from", &q.From, true)
		getI("to", &q.To, true)
	case About:
		getI("w", &q.Window, true)
		getF("supp", &q.MinSupp, true)
		getF("conf", &q.MinConf, true)
		if v, ok := kv["items"]; ok && v != "" {
			q.Items = strings.Split(v, ",")
		} else if err == nil {
			err = fmt.Errorf("query: missing items=")
		}
		getPage()
	case Rank:
		getI("from", &q.From, true)
		getI("to", &q.To, true)
		getF("supp", &q.MinSupp, true)
		getF("conf", &q.MinConf, true)
		q.Measure = kv["by"]
		if q.Measure == "" {
			q.Measure = "stability"
		}
		q.TopK = 10
		getI("k", &q.TopK, false)
	case Periodic:
		getI("from", &q.From, true)
		getI("to", &q.To, true)
		getF("supp", &q.MinSupp, true)
		getF("conf", &q.MinConf, true)
		getI("period", &q.Period, true)
		q.TopK = 10
		getI("k", &q.TopK, false)
	case Plot:
		getI("w", &q.Window, true)
		q.MinSupp, q.MinConf = -1, -1
		getF("supp", &q.MinSupp, false)
		getF("conf", &q.MinConf, false)
	case Export:
		getI("w", &q.Window, true)
		getF("supp", &q.MinSupp, true)
		getF("conf", &q.MinConf, true)
		q.File = kv["file"]
		if q.File == "" && err == nil {
			err = fmt.Errorf("query: missing file=")
		}
		q.Format = kv["format"]
		if q.Format == "" {
			q.Format = "csv"
		}
		if err == nil && q.Format != "csv" && q.Format != "json" {
			err = fmt.Errorf("query: unknown format %q (want csv or json)", q.Format)
		}
		getPage()
	case TopK:
		getI("from", &q.From, true)
		getI("to", &q.To, true)
		getF("supp", &q.MinSupp, true)
		getF("conf", &q.MinConf, true)
		q.Measure = kv["by"]
		if q.Measure == "" {
			q.Measure = "stability"
		}
		q.TopK = 10
		getI("k", &q.TopK, false)
		getPage()
	case Similar:
		getI("from", &q.From, true)
		getI("to", &q.To, true)
		getFs("ref", &q.Ref, true)
		q.Metric = kv["metric"]
		getF("supp", &q.MinSupp, false)
		getF("conf", &q.MinConf, false)
		q.TopK = 10
		getI("k", &q.TopK, false)
		getPage()
	case Emerging:
		getI("from", &q.From, true)
		// to defaults to the latest committed window; -1 is the sentinel the
		// framework resolves at answer time, so "what just emerged" needs no
		// window arithmetic on the client.
		q.To = -1
		getI("to", &q.To, false)
		getF("supp", &q.MinSupp, true)
		getF("conf", &q.MinConf, true)
		getPage()
	}
	if err != nil {
		return Query{}, err
	}
	if err := q.validate(); err != nil {
		return Query{}, err
	}
	return q, nil
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

// scalar parses one parameter value, naming the parameter in the error.
func scalar[T any](key, v string, parse func(string) (T, error)) (T, error) {
	x, err := parse(v)
	if err != nil {
		err = fmt.Errorf("query: bad %s: %v", key, err)
	}
	return x, err
}

// list parses a comma-separated parameter value element by element.
func list[T any](key, v string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, part := range strings.Split(v, ",") {
		x, err := scalar(key, strings.TrimSpace(part), parse)
		if err != nil {
			return nil, err
		}
		out = append(out, x)
	}
	return out, nil
}

// validate rejects threshold values that no framework can answer sensibly —
// NaN and infinities in particular would silently pass the generation
// threshold comparison (NaN compares false) and then corrupt binary searches
// over the parameter grid. Plot's -1 sentinel ("no request marker") is the
// one allowed out-of-range value.
func (q Query) validate() error {
	checkFrac := func(name string, v float64) error {
		if q.Kind == Plot && v == -1 {
			return nil
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1 {
			return fmt.Errorf("query: %s %g outside [0,1]", name, v)
		}
		return nil
	}
	if err := checkFrac("supp", q.MinSupp); err != nil {
		return err
	}
	if err := checkFrac("conf", q.MinConf); err != nil {
		return err
	}
	if q.Kind == Compare {
		if err := checkFrac("b supp", q.MinSupp2); err != nil {
			return err
		}
		if err := checkFrac("b conf", q.MinConf2); err != nil {
			return err
		}
	}
	if math.IsNaN(q.MinLift) || math.IsInf(q.MinLift, 0) || q.MinLift < 0 {
		return fmt.Errorf("query: lift %g must be a finite non-negative number", q.MinLift)
	}
	// The trajectory classes resolve their measure/metric/profile strings at
	// answer time; rejecting bad values here keeps them client errors rather
	// than execution failures.
	if q.Kind == TopK {
		if _, err := traj.MeasureByName(q.Measure); err != nil {
			return fmt.Errorf("query: %v", err)
		}
	}
	if q.Kind == Similar {
		if _, err := traj.MetricByName(q.Metric); err != nil {
			return fmt.Errorf("query: %v", err)
		}
		for _, v := range q.Ref {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1 {
				return fmt.Errorf("query: ref value %g outside [0,1]", v)
			}
		}
	}
	return nil
}
