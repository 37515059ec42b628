package main

import (
	"os"
	"path/filepath"
	"time"
)

// ingest is the end-to-end pass of the ingest workload, the write side of the
// layers the serving workloads read. Set-up only generates the dataset. The
// measured interval repeats, until r.seconds have passed, one
// `tara -load … -save … -q count` from exec to exit followed by sz.restarts
// restarts of `tarad -kb … -mmap`, each timed from exec to its first correct
// /count answer, sent sz.smoke first-touch /count requests, and SIGTERMed.
// Those requests are where a restart made cheap by deferring work shows.
func (r *runner) ingest(setups int) (*outcome, error) {
	o := &outcome{e2e: map[string]float64{}}
	var (
		totals   []float64
		tsv      string
		tsvBytes int64
	)
	for i := 0; i < setups; i++ {
		start := time.Now()
		var err error
		if tsv, tsvBytes, err = r.dataset(); err != nil {
			return nil, err
		}
		totals = append(totals, time.Since(start).Seconds())
	}
	o.e2e["setup_s"] = median(totals)
	kb := filepath.Join(r.out, "kb.tarakb")
	o.tsv, o.kb = tsv, kb

	// The smoke requests are the count requests of the explore stream.
	g := newGenerator(wFirstTouch, r.sz, r.seed, 1)
	nextCount := func() request {
		for {
			if rq := g.next(); rq.class == "count" {
				return rq
			}
		}
	}

	var (
		ingests  []usage
		restarts []time.Duration
		taraRSS  []float64
		cpu      time.Duration
		kbBytes  int64
		probe, _ = r.probe()
	)
	deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	start := time.Now()
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		u, err := r.ingestOnce(tsv, kb)
		o.attempted++
		if err != nil {
			return nil, err
		}
		ingests = append(ingests, u)
		taraRSS = append(taraRSS, u.rssMB)
		st, err := os.Stat(kb)
		if err != nil {
			return nil, err
		}
		kbBytes = st.Size()
		o.samples = append(o.samples, sampled{probe, countAnswer(u.stdout), "tara -q"})

		for j := 0; j < r.sz.restarts; j++ {
			d, err := r.restart(kb)
			o.attempted++
			if err != nil {
				return nil, err
			}
			restarts = append(restarts, d.ready)
			o.samples = append(o.samples, sampled{probe, d.first, "first answer after restart"})
			burst, answered := time.Now(), 0
			for k := 1; k < r.sz.smoke; k++ {
				if r.exchange(o, d, wIngest, nextCount(), "") {
					answered++
				}
			}
			o.rates = append(o.rates, float64(answered)/time.Since(burst).Seconds())
			du, err := d.stop()
			if err != nil {
				return nil, err
			}
			cpu += du.cpu
		}
	}
	o.elapsed = time.Since(start)
	lifecycleMetrics(o.e2e, r.sz.tx, ingests, restarts, tsvBytes, kbBytes)
	queryMetrics(o, cpu)
	o.e2e["peak_rss_mb"] = median(taraRSS)

	// The knowledge base must reopen, and what was printed and served must
	// be what DCTAR derives from the raw windows.
	orc, err := newOracle(tsv, kb, r.sz)
	if err != nil {
		return nil, err
	}
	defer orc.close()
	o.numRules = orc.fw.RuleDict().Len()
	r.judge(o, orc, wIngest)
	return o, nil
}
