package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// runner holds what every workload of one invocation shares.
type runner struct {
	repo, out       string
	taraBin, tarad  string
	sz              sizes
	seed            int64
	seconds         float64
	kids            children
	log             io.Writer // progress and failures, one line each
	failuresPrinted int
}

// failf reports one failed operation. Only the first few are printed in full;
// all are counted by the caller.
func (r *runner) failf(format string, args ...any) {
	if r.failuresPrinted++; r.failuresPrinted <= 20 {
		fmt.Fprintf(r.log, "FAILED "+format+"\n", args...)
	}
}

// The probe is the request that decides a daemon is up, and the query `tara
// -q` answers after an ingest: twice the generation thresholds in window 0.
func (r *runner) probe() (rq request, cli string) {
	supp := strconv.FormatFloat(2*r.sz.genSupp, 'f', -1, 64)
	conf := strconv.FormatFloat(2*r.sz.genConf, 'f', -1, 64)
	return request{class: "count", target: "/count?w=0&supp=" + supp + "&conf=" + conf, pool: -1},
		"count w=0 supp=" + supp + " conf=" + conf
}

// lifecycle is one pass through a knowledge base's life before queries: the
// dataset is generated, `tara` ingests it, `tarad` restarts on the result.
type lifecycle struct {
	tsv, kb           string
	tsvBytes, kbBytes int64
	ingest            usage
	restarts          []time.Duration // each from exec to first correct /count answer
	total             time.Duration
	daemon            *daemon
}

func (r *runner) dataset() (path string, size int64, err error) {
	path = filepath.Join(r.out, "transactions.tsv")
	size, err = writeDataset(path, r.sz, r.seed)
	return path, size, err
}

// pin confines the benchmark, and the children it starts from then on, to one
// CPU (README, "One CPU"). Where the kernel refuses, the run goes on unconfined
// and says so.
func (r *runner) pin() {
	all, err := allowedCPUs()
	if err == nil {
		err = confine(all.first())
	}
	if err != nil {
		fmt.Fprintf(r.log, "cannot confine the run to one CPU (%v): timings will be noisier\n", err)
	}
}

// ingestOnce runs `tara -load … -save … -q count` from exec to exit.
func (r *runner) ingestOnce(tsv, kb string) (usage, error) {
	_, q := r.probe()
	return r.kids.runToExit(filepath.Join(r.out, "tara.stderr"), r.taraBin,
		"-load", tsv, "-batches", strconv.Itoa(r.sz.windows),
		"-supp", strconv.FormatFloat(r.sz.genSupp, 'f', -1, 64),
		"-conf", strconv.FormatFloat(r.sz.genConf, 'f', -1, 64),
		"-maxlen", strconv.Itoa(r.sz.maxLen),
		"-save", kb, "-saveformat", "mapped", "-q", q)
}

// countAnswer recasts the line `tara -q 'count …'` prints ("1621 rules in
// window 0 at …") as the body /count serves, so that the oracle judges what
// the CLI printed the way it judges what the daemon served.
func countAnswer(stdout []byte) reply {
	n, _, _ := strings.Cut(strings.TrimSpace(string(stdout)), " ")
	return reply{body: []byte(`{"count":` + n + `}`)}
}

// restart starts tarad on kb and waits for its first answer, to the probe.
func (r *runner) restart(kb string) (*daemon, error) {
	d, err := r.kids.startDaemon(filepath.Join(r.out, "tarad.stderr"), r.tarad, kb)
	if err != nil {
		return nil, err
	}
	rq, _ := r.probe()
	if d.first, err = d.cli.waitReady(rq, 20*time.Second); err != nil {
		d.stop()
		return nil, fmt.Errorf("tarad: %w (stderr in %s)", err, d.log.Name())
	}
	d.ready = time.Since(d.started)
	return d, nil
}

// setUp performs one lifecycle — with sz.restarts restarts, so that a run has
// enough of them for a median — and leaves the last daemon running.
func (r *runner) setUp() (*lifecycle, error) {
	start := time.Now()
	lc := &lifecycle{kb: filepath.Join(r.out, "kb.tarakb")}
	var err error
	if lc.tsv, lc.tsvBytes, err = r.dataset(); err != nil {
		return nil, err
	}
	if lc.ingest, err = r.ingestOnce(lc.tsv, lc.kb); err != nil {
		return nil, err
	}
	st, err := os.Stat(lc.kb)
	if err != nil {
		return nil, err
	}
	lc.kbBytes = st.Size()
	for i := 0; i < r.sz.restarts; i++ {
		if lc.daemon != nil {
			if _, err := lc.daemon.stop(); err != nil {
				return nil, err
			}
		}
		if lc.daemon, err = r.restart(lc.kb); err != nil {
			return nil, err
		}
		lc.restarts = append(lc.restarts, lc.daemon.ready)
	}
	lc.total = time.Since(start)
	return lc, nil
}

// record is one attempted request of a measured interval, in send order.
type record struct {
	class string
	ms    float64
	size  int
	ok    bool
}

// sampled is an answer kept for the oracle.
type sampled struct {
	rq   request
	rep  reply
	what string
}

// keepSample fixes which requests of an interval the oracle sees: the first
// 64, which meet the coldest caches, and then one in 200.
func keepSample(i int, seed int64) bool {
	return i < 64 || i%200 == int(seed%200+200)%200
}

// outcome is what a workload's end-to-end pass produced.
type outcome struct {
	attempted int
	failed    int
	records   []record
	samples   []sampled
	// rates holds the correct answers per second of each slice of the
	// measured interval; query_per_s is their median, which a stall of the
	// machine moves less than it moves the mean.
	rates   []float64
	elapsed time.Duration // the measured interval
	e2e     map[string]float64
	// Read from the daemon's /metrics after the interval.
	byteCacheHitRatio float64
	shed              float64
	// What the traced pass replays against.
	tsv, kb  string
	numRules int
}

// exchange sends one request of a measured interval, records it, and keeps
// the answer for the oracle when the sampling rule picks it. It reports whether
// the answer was acceptable.
func (r *runner) exchange(o *outcome, d *daemon, workload string, rq request, etag string) bool {
	i := len(o.records)
	keep := keepSample(i, r.seed)
	rep, err := d.cli.do(rq, etag, keep)
	if err == nil {
		err = rep.accepted(rq, etag)
	}
	o.attempted++
	o.records = append(o.records, record{class: rq.class, ms: float64(rep.latency) / 1e6, size: rep.size, ok: err == nil})
	if err != nil {
		o.failed++
		r.failf("%s request %d %s: %v", workload, i, rq.target, err)
		return false
	}
	if keep && rep.status == http.StatusOK {
		o.samples = append(o.samples, sampled{rq, rep, "request " + strconv.Itoa(i)})
	}
	return true
}

// judge hands every kept answer to the oracle. One it rejects is a failed
// operation, printed with its URL.
func (r *runner) judge(o *outcome, orc *oracle, workload string) {
	for _, s := range o.samples {
		body, err := s.rep.text()
		if err == nil {
			err = orc.check(s.rq, body)
		}
		if err != nil {
			o.failed++
			r.failf("%s %s %s: %v", workload, s.what, s.rq.target, err)
		}
	}
}

// lifecycleMetrics folds the ingest and restart figures of a run's lifecycles
// into the end-to-end metrics they feed. An ingest or a restart is the same
// work every time and a run times it only a few times, so the wall-clock
// figures take the fast end of what was seen — the fastest ingest, the lower
// quartile of the restarts: interference from a shared box only ever adds time.
func lifecycleMetrics(e2e map[string]float64, tx int, ingests []usage, restarts []time.Duration, tsvBytes, kbBytes int64) {
	var rate, cpu, ms []float64
	for _, u := range ingests {
		rate = append(rate, float64(tx)/u.wall.Seconds())
		cpu = append(cpu, u.cpu.Seconds())
	}
	for _, d := range restarts {
		ms = append(ms, float64(d)/1e6)
	}
	fastest := sortedCopy(rate)
	e2e["ingest_tx_per_s"] = fastest[len(fastest)-1]
	e2e["ingest_cpu_s"] = median(cpu)
	e2e["restart_ms"] = percentile(sortedCopy(ms), 0.25)
	e2e["kb_bytes_per_input_byte"] = ratio(float64(kbBytes), float64(tsvBytes))
}

// queryMetrics folds an interval's records into the query metrics.
func queryMetrics(o *outcome, cpu time.Duration) {
	var ms []float64
	for _, rec := range o.records {
		if rec.ok {
			ms = append(ms, rec.ms)
		}
	}
	sorted := sortedCopy(ms)
	o.e2e["query_per_s"] = median(o.rates)
	o.e2e["query_p50_ms"] = percentile(sorted, 0.5)
	o.e2e["cpu_us_per_query"] = ratio(float64(cpu)/1e3, float64(len(ms)))
}

// daemonCounters reads the two /metrics figures the per-layer list carries.
func daemonCounters(base string) (hitRatio, shed float64, err error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var m struct {
		Shed          float64 `json:"shed"`
		ResponseCache struct {
			Hits   float64 `json:"hits"`
			Misses float64 `json:"misses"`
		} `json:"responseCache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return 0, 0, fmt.Errorf("decoding /metrics: %w", err)
	}
	return ratio(m.ResponseCache.Hits, m.ResponseCache.Hits+m.ResponseCache.Misses), m.Shed, nil
}

// serve is the end-to-end pass of a serving workload: set up (several times,
// for a steady setup_s), then one closed-loop client sends the workload's
// request stream to the last set-up's daemon for r.seconds.
func (r *runner) serve(name string, setups int) (*outcome, error) {
	o := &outcome{e2e: map[string]float64{}}
	var (
		lc       *lifecycle
		totals   []float64
		ingests  []usage
		restarts []time.Duration
	)
	for i := 0; i < setups; i++ {
		if lc != nil {
			if _, err := lc.daemon.stop(); err != nil {
				return nil, err
			}
		}
		var err error
		if lc, err = r.setUp(); err != nil {
			return nil, err
		}
		totals = append(totals, lc.total.Seconds())
		ingests = append(ingests, lc.ingest)
		restarts = append(restarts, lc.restarts...)
	}
	o.e2e["setup_s"] = median(totals)
	lifecycleMetrics(o.e2e, r.sz.tx, ingests, restarts, lc.tsvBytes, lc.kbBytes)
	o.tsv, o.kb = lc.tsv, lc.kb
	d := lc.daemon
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()

	orc, err := newOracle(lc.tsv, lc.kb, r.sz)
	if err != nil {
		return nil, err
	}
	defer orc.close()
	o.numRules = orc.fw.RuleDict().Len()
	g := newGenerator(name, r.sz, r.seed, o.numRules)

	// explore-revisit: one unmeasured pass over the pool fills both daemon
	// caches and collects the validators the conditional requests send.
	etags := make([]string, len(g.pool))
	for i, rq := range g.pool {
		rep, err := d.cli.do(rq, "", true)
		if err == nil {
			err = rep.accepted(rq, "")
		}
		o.attempted++
		if err != nil {
			o.failed++
			r.failf("%s warm-up %s: %v", name, rq.target, err)
			continue
		}
		etags[i] = rep.etag
		o.samples = append(o.samples, sampled{rq, rep, "warm-up"})
	}

	cpu0, err := d.cpu()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(time.Duration(r.seconds * float64(time.Second)))
	const slice = 500 * time.Millisecond
	inSlice := 0
	for time.Now().Before(deadline) {
		if full := int(time.Since(start) / slice); full > len(o.rates) {
			// A request that ran across slice boundaries leaves empty slices
			// behind it; they count, as the time in which nothing was answered.
			o.rates = append(o.rates, float64(inSlice)/slice.Seconds())
			for len(o.rates) < full {
				o.rates = append(o.rates, 0)
			}
			inSlice = 0
		}
		rq := g.next()
		etag := ""
		if rq.pool >= 0 {
			etag = etags[rq.pool]
		}
		if r.exchange(o, d, name, rq, etag) {
			inSlice++
		}
	}
	o.elapsed = time.Since(start)

	if o.byteCacheHitRatio, o.shed, err = daemonCounters(d.cli.base); err != nil {
		return nil, err
	}
	stopped = true
	u, err := d.stop()
	if err != nil {
		return nil, err
	}
	queryMetrics(o, u.cpu-cpu0)
	o.e2e["peak_rss_mb"] = u.rssMB

	o.attempted++
	rq, _ := r.probe()
	o.samples = append(o.samples, sampled{rq, countAnswer(lc.ingest.stdout), "tara -q"})
	r.judge(o, orc, name)
	return o, nil
}
