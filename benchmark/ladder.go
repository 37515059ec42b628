package main

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"tara/internal/itemset"
	"tara/internal/query"
	"tara/internal/rules"
	"tara/internal/server"
	"tara/internal/tara"
	"tara/internal/traj"
)

// The layer ladder attributes a serving workload's time. It replays the head
// of the workload's request list once per rung, bottom up, each rung on its
// own tara.Open of the same knowledge-base file so that every rung meets the
// same cache state at request i:
//
//	eps | archive | traj   the index and storage calls the class ends in
//	tara                   the Framework method
//	query                  FromValues, Answer, encode into a discarding writer
//	server                 Handler().ServeHTTP into a discarding ResponseWriter
//	transport              a fresh tarad on the same file, over loopback
//
// A rung contains the rungs below it, so a layer's self time is its span
// minus the rung below — except where a cache cut the descent short: a
// byte-cache hit on the server rung reaches nothing below it, and a
// query-cache hit on the tara rung skips the lookups that cache stands for.
// Both are read off the caches' own counters around each call.

// rungOf places each layer on the ladder.
var rungOf = map[string]int{"eps": 0, "archive": 0, "traj": 0, "tara": 1, "query": 2, "server": 3, "transport": 4}

// span is one timed call into a layer. Parent is the ID of the same request's
// span on the rung above, -1 on the top rung. N is the count the call
// produced (rules, entries, bytes); Hit marks a call its layer's cache
// answered; Cacheable marks bottom-rung work a query-cache hit skips.
type span struct {
	ID        int    `json:"id"`
	Workload  string `json:"workload"`
	Request   int    `json:"request"`
	Layer     string `json:"layer"`
	Op        string `json:"op"`
	StartNs   int64  `json:"start_ns"`
	EndNs     int64  `json:"end_ns"`
	Parent    int    `json:"parent"`
	N         int64  `json:"n,omitempty"`
	Hit       bool   `json:"hit,omitempty"`
	Cacheable bool   `json:"cacheable,omitempty"`
}

func (s span) dur() float64 { return float64(s.EndNs - s.StartNs) }

// trace collects spans in memory; they are written out when the run ends.
type trace struct {
	workload string
	epoch    time.Time
	spans    []span
}

func (t *trace) now() int64 { return int64(time.Since(t.epoch)) }

// add records a span that ran from start to now. The returned pointer is for
// setting the span's flags and is good until the next add.
func (t *trace) add(request int, layer, op string, start int64, n int64) *span {
	t.spans = append(t.spans, span{
		ID: len(t.spans), Workload: t.workload, Request: request, Layer: layer, Op: op,
		StartNs: start, EndNs: t.now(), Parent: -1, N: n,
	})
	return &t.spans[len(t.spans)-1]
}

// sink is the discarding, counting ResponseWriter of the server rung.
type sink struct {
	header http.Header
	status int
	n      int64
}

func (s *sink) Header() http.Header         { return s.header }
func (s *sink) WriteHeader(code int)        { s.status = code }
func (s *sink) Write(b []byte) (int, error) { s.n += int64(len(b)); return len(b), nil }

type countingDiscard struct{ n int64 }

func (c *countingDiscard) Write(b []byte) (int, error) { c.n += int64(len(b)); return len(b), nil }

// rankMeasure resolves /rank's by= the way package query does.
func rankMeasure(name string) tara.EvolutionMeasure {
	switch name {
	case "coverage":
		return tara.ByCoverage
	case "volatility":
		return tara.ByVolatility
	}
	return tara.ByStability
}

// bottom replays one request on the lowest rung: the eps, archive and traj
// calls its Framework method ends in, as explore.go, periodic.go and traj.go
// of package tara make them.
func bottom(t *trace, f *tara.Framework, snap **traj.Snapshot, i int, class string, q query.Query) error {
	arch, index := f.Archive(), f.Index()
	union := func(from, to int, supp, conf float64) ([]rules.ID, error) {
		seen := map[rules.ID]bool{}
		var ids []rules.ID
		for w := from; w <= to; w++ {
			s, err := index.Slice(w)
			if err != nil {
				return nil, err
			}
			for _, id := range s.Rules(supp, conf) {
				if !seen[id] {
					seen[id] = true
					ids = append(ids, id)
				}
			}
		}
		return ids, nil
	}
	snapshot := func() (*traj.Snapshot, error) {
		if *snap == nil {
			st := t.now()
			s, err := traj.Build(arch)
			if err != nil {
				return nil, err
			}
			t.add(i, "traj", "Build", st, int64(s.MemBytes()))
			*snap = s
		}
		return *snap, nil
	}
	switch class {
	case "mine", "count", "recommend", "content":
		s, err := index.Slice(q.Window)
		if err != nil {
			return err
		}
		st := t.now()
		switch class {
		case "mine":
			t.add(i, "eps", "Rules", st, int64(len(s.Rules(q.MinSupp, q.MinConf)))).Cacheable = true
		case "count":
			t.add(i, "eps", "Count", st, int64(s.Count(q.MinSupp, q.MinConf))).Cacheable = true
		case "recommend":
			t.add(i, "eps", "Region", st, int64(s.Region(q.MinSupp, q.MinConf).NumRules)).Cacheable = true
		case "content":
			items := make(itemset.Set, 0, len(q.Items))
			for _, name := range q.Items {
				if it, ok := f.ItemDict().Lookup(name); ok {
					items = append(items, it)
				}
			}
			items = itemset.Canonicalize(items)
			st = t.now()
			ids, err := s.RulesWithItems(q.MinSupp, q.MinConf, items)
			if err != nil {
				return err
			}
			t.add(i, "eps", "RulesWithItems", st, int64(len(ids)))
		}
	case "diff":
		st, n := t.now(), 0
		for _, w := range q.Windows {
			s, err := index.Slice(w)
			if err != nil {
				return err
			}
			a, b := s.Diff(q.MinSupp, q.MinConf, q.MinSupp2, q.MinConf2)
			n += len(a) + len(b)
		}
		t.add(i, "eps", "Diff", st, int64(n)).Cacheable = true
	case "trajectory":
		s, err := index.Slice(q.Window)
		if err != nil {
			return err
		}
		st := t.now()
		ids := s.Rules(q.MinSupp, q.MinConf)
		t.add(i, "eps", "Rules", st, int64(len(ids)))
		st, n := t.now(), 0
		out, present := make([]rules.Stats, len(q.Windows)), make([]bool, len(q.Windows))
		for _, id := range ids {
			arch.StatsIn(id, q.Windows, out, present)
			for _, p := range present {
				if p {
					n++
				}
			}
		}
		t.add(i, "archive", "StatsIn", st, int64(n))
	case "rollup":
		st := t.now()
		ids, err := union(q.From, q.To, q.MinSupp, 0)
		if err != nil {
			return err
		}
		t.add(i, "eps", "Rules", st, int64(len(ids)))
		st, n := t.now(), 0
		for _, id := range ids {
			if _, _, err := arch.RollUp(id, q.From, q.To); err != nil {
				return err
			}
			n += len(arch.Range(id, q.From, q.To))
		}
		t.add(i, "archive", "RollUp+Range", st, int64(n))
	case "drill":
		st, n := t.now(), 0
		for w := q.From; w <= q.To; w++ {
			if _, ok := arch.StatsAt(rules.ID(q.RuleID), w); ok {
				n++
			}
		}
		t.add(i, "archive", "StatsAt", st, int64(n))
	case "rank", "periodic":
		st := t.now()
		ids, err := union(q.From, q.To, q.MinSupp, q.MinConf)
		if err != nil {
			return err
		}
		t.add(i, "eps", "Rules", st, int64(len(ids)))
		if class == "periodic" {
			break // FindPeriodic folds presence vectors; it reads no archive
		}
		st, n := t.now(), 0
		for _, id := range ids {
			tr, err := arch.Trajectory(id, q.From, q.To)
			if err != nil {
				return err
			}
			n += len(tr.Entries)
		}
		t.add(i, "archive", "Trajectory", st, int64(n))
	case "topk":
		s, err := snapshot()
		if err != nil {
			return err
		}
		m, err := traj.MeasureByName(q.Measure)
		if err != nil {
			return err
		}
		st := t.now()
		aggs, err := s.AggregateRange(q.From, q.To, 0.01)
		if err != nil {
			return err
		}
		t.add(i, "traj", "AggregateRange", st, int64(len(aggs))).Cacheable = true
		st = t.now()
		ranked, err := s.TopK(aggs, q.From, q.To, q.MinSupp, q.MinConf, m, q.TopK)
		if err != nil {
			return err
		}
		t.add(i, "traj", "TopK", st, int64(len(ranked)))
	case "similar":
		s, err := snapshot()
		if err != nil {
			return err
		}
		m, err := traj.MetricByName(q.Metric)
		if err != nil {
			return err
		}
		st := t.now()
		_, pruned, err := s.Similar(q.From, q.To, q.Ref, m, q.MinSupp, q.MinConf, q.TopK)
		if err != nil {
			return err
		}
		t.add(i, "traj", "Similar", st, int64(pruned))
	case "emerging":
		s, err := snapshot()
		if err != nil {
			return err
		}
		st := t.now()
		em, err := s.Emerging(q.From, q.To, q.MinSupp, q.MinConf)
		if err != nil {
			return err
		}
		t.add(i, "traj", "Emerging", st, int64(len(em)))
	}
	return nil
}

// framework replays one request on the tara rung and returns the number of
// rows the method produced.
func framework(f *tara.Framework, class string, q query.Query) (op string, rows int, err error) {
	switch class {
	case "mine":
		v, err := f.Mine(q.Window, q.MinSupp, q.MinConf)
		return "Mine", len(v), err
	case "count":
		n, err := f.Count(q.Window, q.MinSupp, q.MinConf)
		return "Count", n, err
	case "recommend":
		reg, err := f.Recommend(q.Window, q.MinSupp, q.MinConf)
		return "Recommend", reg.NumRules, err
	case "diff":
		d, err := f.Compare(q.Windows, q.MinSupp, q.MinConf, q.MinSupp2, q.MinConf2)
		for _, w := range d {
			rows += len(w.OnlyA) + len(w.OnlyB)
		}
		return "Compare", rows, err
	case "content":
		v, err := f.RulesAbout(q.Window, q.MinSupp, q.MinConf, q.Items)
		return "RulesAbout", len(v), err
	case "trajectory":
		v, err := f.RuleTrajectories(q.Window, q.MinSupp, q.MinConf, q.Windows)
		return "RuleTrajectories", len(v), err
	case "rollup":
		v, err := f.MineRollUp(q.From, q.To, q.MinSupp, q.MinConf)
		return "MineRollUp", len(v), err
	case "drill":
		v, err := f.DrillDown(rules.ID(q.RuleID), q.From, q.To)
		return "DrillDown", len(v), err
	case "rank":
		v, err := f.RankEvolution(q.From, q.To, q.MinSupp, q.MinConf, rankMeasure(q.Measure), 0.01, q.TopK)
		return "RankEvolution", len(v), err
	case "periodic":
		v, err := f.FindPeriodic(q.From, q.To, q.MinSupp, q.MinConf, q.Period, q.TopK)
		return "FindPeriodic", len(v), err
	case "topk":
		m, err := traj.MeasureByName(q.Measure)
		if err != nil {
			return "", 0, err
		}
		v, err := f.TopKTrajectories(q.From, q.To, q.MinSupp, q.MinConf, m, q.TopK)
		return "TopKTrajectories", len(v), err
	case "similar":
		m, err := traj.MetricByName(q.Metric)
		if err != nil {
			return "", 0, err
		}
		v, _, err := f.SimilarTrajectories(q.From, q.To, q.Ref, m, q.MinSupp, q.MinConf, q.TopK)
		return "SimilarTrajectories", len(v), err
	case "emerging":
		v, err := f.EmergingRules(q.From, q.To, q.MinSupp, q.MinConf)
		return "EmergingRules", len(v), err
	}
	return "", 0, fmt.Errorf("no Framework method for class %q", class)
}

// rowsOf counts the rows of a query answer: what the client is handed, as
// against what the layers below produced to get there.
func rowsOf(res any) int {
	switch v := res.(type) {
	case *query.MineStream:
		return v.Count()
	case query.TrajectoryResult:
		return v.Count
	case query.RollUpResult:
		return v.Count
	case query.DrillResult:
		return len(v.Windows)
	case query.RankResult:
		return len(v.Rules)
	case query.PeriodicResult:
		return len(v.Rules)
	case query.TopKResult:
		return v.Count
	case query.SimilarResult:
		return v.Count
	case query.EmergingResult:
		return v.Count
	}
	return 1
}

// ladderResult is what the traced pass hands to the per-layer metrics.
type ladderResult struct {
	trace     *trace
	requests  []request
	warm      int // leading requests that are explore-revisit's warm-up pass
	rows      []int
	openMs    []float64
	cacheHits float64 // tara query cache, over the tara rung
	cacheMiss float64
	kbBytes   int64
	// snapshotRules is the number of trajectories a /similar scan considers.
	snapshotRules int
}

// climb runs the ladder over reqs (whose first warm entries are a warm-up
// pass) against the knowledge base at kbPath. restart starts a daemon on it for
// the top rung.
func climb(workload, kbPath, logPath string, reqs []request, warm int, restart func() (*daemon, error)) (*ladderResult, error) {
	t := &trace{workload: workload, epoch: time.Now()}
	res := &ladderResult{trace: t, requests: reqs, warm: warm, rows: make([]int, len(reqs))}
	qs := make([]query.Query, len(reqs))
	for i, rq := range reqs {
		var err error
		if qs[i], err = query.FromValues(endpoint[rq.class].op, rq.values()); err != nil {
			return nil, fmt.Errorf("%s: %w", rq.target, err)
		}
	}
	open := func() (*tara.Framework, error) {
		st := time.Now()
		f, err := tara.Open(kbPath)
		res.openMs = append(res.openMs, float64(time.Since(st))/1e6)
		return f, err
	}
	// top[r][i] is the ID of request i's (last) span on rung r, for the parent
	// links; rung 0 is the bottom and is nobody's parent.
	const rungs = 5
	top := make([][]int, rungs)
	for r := range top {
		top[r] = make([]int, len(reqs))
		for i := range top[r] {
			top[r][i] = -1
		}
	}
	mark := func(r, i int, s *span) { top[r][i] = s.ID }

	etags := make([]string, warm)
	etagOf := func(rq request) string {
		if rq.pool >= 0 && rq.pool < len(etags) {
			return etags[rq.pool]
		}
		return ""
	}

	// Rung 4: transport — a fresh daemon, as in the untraced pass, with the
	// client recording a span around each exchange. It goes first, while the
	// machine is closest to the state the untraced pass met.
	d, err := restart()
	if err != nil {
		return nil, err
	}
	err = func() error {
		for i, rq := range reqs {
			etag := etagOf(rq)
			st := t.now()
			rep, err := d.cli.do(rq, etag, false)
			mark(4, i, t.add(i, "transport", "roundtrip", st, int64(rep.size)))
			if err == nil {
				err = rep.accepted(rq, etag)
			}
			if err != nil {
				return fmt.Errorf("transport rung, %s: %w", rq.target, err)
			}
			if i < warm {
				etags[i] = rep.etag
			}
		}
		return nil
	}()
	if _, serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}

	// Rung 0: eps, archive, traj.
	f, err := open()
	if err != nil {
		return nil, err
	}
	var snap *traj.Snapshot
	for i, rq := range reqs {
		if err := bottom(t, f, &snap, i, rq.class, qs[i]); err != nil {
			f.Close()
			return nil, fmt.Errorf("bottom rung, %s: %w", rq.target, err)
		}
	}
	if snap != nil {
		res.snapshotRules = snap.Rules()
	}
	f.Close()

	// Rung 1: tara.
	if f, err = open(); err != nil {
		return nil, err
	}
	for i, rq := range reqs {
		before := f.CacheStats()
		st := t.now()
		op, rows, err := framework(f, rq.class, qs[i])
		s := t.add(i, "tara", op, st, int64(rows))
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("tara rung, %s: %w", rq.target, err)
		}
		after := f.CacheStats()
		s.Hit = after.Hits > before.Hits && after.Misses == before.Misses
		mark(1, i, s)
	}
	cs := f.CacheStats()
	res.cacheHits, res.cacheMiss = float64(cs.Hits), float64(cs.Misses)
	f.Close()

	// Rung 2: query.
	if f, err = open(); err != nil {
		return nil, err
	}
	for i, rq := range reqs {
		vals, op := rq.values(), endpoint[rq.class].op
		st := t.now()
		q, err := query.FromValues(op, vals)
		t.add(i, "query", "FromValues", st, 0)
		if err != nil {
			f.Close()
			return nil, err
		}
		st = t.now()
		ans, err := query.Answer(f, q)
		t.add(i, "query", "Answer", st, 0)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("query rung, %s: %w", rq.target, err)
		}
		res.rows[i] = rowsOf(ans)
		var out countingDiscard
		st = t.now()
		if sr, ok := ans.(query.Streamer); ok {
			err = sr.StreamJSON(&out)
		} else {
			err = json.NewEncoder(&out).Encode(ans)
		}
		mark(2, i, t.add(i, "query", "encode", st, out.n))
		if err != nil {
			f.Close()
			return nil, err
		}
	}
	f.Close()

	// Rung 3: server. Every Config field but the knowledge base and the log
	// destination keeps its zero value. The request
	// log goes to a file, as the daemon's does: one write per request is part
	// of what the server layer costs.
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	quiet := slog.New(slog.NewTextHandler(logFile, nil))
	if f, err = open(); err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Framework: f, Logger: quiet})
	if err != nil {
		f.Close()
		return nil, err
	}
	h := srv.Handler()
	for i, rq := range reqs {
		hr := httptest.NewRequest(http.MethodGet, rq.target, nil)
		etag := etagOf(rq)
		if rq.cond && etag != "" {
			hr.Header.Set("If-None-Match", etag)
		}
		if rq.gzip {
			hr.Header.Set("Accept-Encoding", "gzip")
		}
		w := &sink{header: http.Header{}, status: http.StatusOK}
		before := srv.ByteCacheStats().Hits
		st := t.now()
		h.ServeHTTP(w, hr)
		s := t.add(i, "server", "ServeHTTP", st, w.n)
		s.Hit = srv.ByteCacheStats().Hits > before
		mark(3, i, s)
		if w.status != http.StatusOK && w.status != http.StatusNotModified {
			f.Close()
			return nil, fmt.Errorf("server rung, %s: status %d", rq.target, w.status)
		}
		if i < warm {
			etags[i] = w.header.Get("ETag")
		}
	}
	f.Close()

	// Each span's parent is the same request's span one rung up.
	for i := range t.spans {
		s := &t.spans[i]
		if r := rungOf[s.Layer]; r+1 < rungs {
			s.Parent = top[r+1][s.Request]
		}
	}
	return res, nil
}

// perRequest is one replayed request's time by layer, in ns.
type perRequest struct {
	eps, archive, traj float64 // reached bottom-rung work
	tara               float64 // self
	parse, answer, enc float64 // query self, by part
	server, transport  float64 // self
	total              float64 // transport rung span
	handler            float64 // server rung span
	encBytes           float64
	taraRows           float64
	serverHit, taraHit bool
}

// attribute turns the trace into per-request self times.
func attribute(res *ladderResult) []perRequest {
	type acc struct {
		bottomAll, bottomKept map[string]float64
		tara, parse, answer   float64
		enc, server, total    float64
		encBytes, taraRows    float64
		taraHit, serverHit    bool
	}
	as := make([]acc, len(res.requests))
	for i := range as {
		as[i].bottomAll, as[i].bottomKept = map[string]float64{}, map[string]float64{}
	}
	for _, s := range res.trace.spans {
		a := &as[s.Request]
		switch s.Layer {
		case "eps", "archive", "traj":
			a.bottomAll[s.Layer] += s.dur()
			if !s.Cacheable {
				a.bottomKept[s.Layer] += s.dur()
			}
		case "tara":
			a.tara, a.taraHit, a.taraRows = s.dur(), s.Hit, float64(s.N)
		case "query":
			switch s.Op {
			case "FromValues":
				a.parse = s.dur()
			case "Answer":
				a.answer = s.dur()
			default:
				a.enc, a.encBytes = s.dur(), float64(s.N)
			}
		case "server":
			a.server, a.serverHit = s.dur(), s.Hit
		case "transport":
			a.total = s.dur()
		}
	}
	out := make([]perRequest, len(as))
	for i, a := range as {
		p := perRequest{total: a.total, handler: a.server, transport: a.total - a.server,
			serverHit: a.serverHit, taraHit: a.taraHit}
		if a.serverHit {
			// The byte cache answered: nothing below the server ran.
			p.server = a.server
			out[i] = p
			continue
		}
		reached := a.bottomAll
		if a.taraHit {
			reached = a.bottomKept
		}
		p.eps, p.archive, p.traj = reached["eps"], reached["archive"], reached["traj"]
		p.tara = a.tara - (p.eps + p.archive + p.traj)
		p.parse, p.answer, p.enc = a.parse, a.answer-a.tara, a.enc
		p.server = a.server - (a.parse + a.answer + a.enc)
		p.encBytes, p.taraRows = a.encBytes, a.taraRows
		out[i] = p
	}
	return out
}
