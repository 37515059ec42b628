package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// small is the pipeline at about a twentieth of full: the same stages, classes
// and checks on a knowledge base that builds in a fraction of a second.
var small = sizes{
	tx: 3000, windows: 6, items: 300, avgLen: 8, drift: 0.02,
	genSupp: 0.02, genConf: 0.1, suppHi: 0.08, confHi: 0.7, maxLen: 3,
	setups:   1,
	pool:     32,
	ladder:   map[string]int{wFirstTouch: 150, wRevisit: 300, wEvolve: 60},
	restarts: 2, smoke: 30,
}

// testRunner compiles the shipped binaries once per test binary.
func testRunner(t *testing.T) *runner {
	t.Helper()
	if testing.Short() {
		t.Skip("drives the compiled tara and tarad; skipped with -short")
	}
	repo, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	taraBin, tarad, _, err := compile(repo, filepath.Join(out, "bin"))
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{out: out, taraBin: taraBin, tarad: tarad, sz: small, seed: 5, seconds: 0.8, log: io.Discard}
	t.Cleanup(r.kids.killAll)
	r.pin()
	return r
}

// declared reads the metric and workload names BENCHMARK.json declares.
func declared(t *testing.T) (workloads, e2e, layers []string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range doc.PerLayer {
		layers = append(layers, m.Name)
	}
	return workloads, e2e, layers
}

func sameNames(t *testing.T, what string, got map[string]float64, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d names emitted, BENCHMARK.json declares %d", what, len(got), len(want))
	}
	for _, n := range want {
		if _, ok := got[n]; !ok {
			t.Errorf("%s: %s is declared in BENCHMARK.json and not emitted", what, n)
		}
	}
}

// TestPipeline runs every workload, both passes, at small scale: each declared
// name is emitted exactly once (the maps cannot hold a name twice) and nothing
// else is, no operation fails, every end-to-end metric is non-zero, and what
// the ladder cannot attribute stays bounded.
func TestPipeline(t *testing.T) {
	r := testRunner(t)
	workloads, e2e, layers := declared(t)
	if strings.Join(workloads, " ") != strings.Join(workloadNames, " ") {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark runs %v", workloads, workloadNames)
	}
	for _, name := range workloadNames {
		res, spans, err := r.runWorkload(name, true, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Failed != 0 || res.Ops == 0 {
			t.Errorf("%s: %d of %d operations failed", name, res.Failed, res.Ops)
		}
		sameNames(t, name+" end to end", res.EndToEnd, e2e)
		sameNames(t, name+" per layer", res.Layers, layers)
		for n, v := range res.EndToEnd {
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v, want a positive number", name, n, v)
			}
		}
		if len(spans) == 0 {
			t.Errorf("%s: the traced pass recorded no span", name)
		}
		// The layers a workload drives report; the others read 0.
		drives := map[string]string{wFirstTouch: "eps.lookup_us_p50", wRevisit: "server.self_us_p50", wEvolve: "traj.scan_us_p50", wIngest: "mining.mine_ms_per_window"}
		if res.Layers[drives[name]] <= 0 {
			t.Errorf("%s: %s = %v, want it measured", name, drives[name], res.Layers[drives[name]])
		}
		if name == wIngest {
			if res.Layers["eps.lookup_us_p50"] != 0 {
				t.Errorf("ingest reports a serving-only metric")
			}
			continue
		}
		if res.Layers["mining.mine_ms_per_window"] != 0 {
			t.Errorf("%s reports an ingest-only metric", name)
		}
		// The top rung replays against a fresh daemon what the untraced pass
		// sent to another: the two differ by tracing overhead and by how the
		// machine drifted in between. On a shared box, over the second this
		// test measures, that is not little; a wrong unit or a rung that did
		// not run would still put the share far outside.
		if u := res.Layers["e2e.unattributed_share"]; math.Abs(u) > 0.6 {
			t.Errorf("%s: e2e.unattributed_share = %v, want within ±0.6", name, u)
		}
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	for _, name := range []string{wFirstTouch, wRevisit, wEvolve} {
		a := digest(take(name, small, 11, 500, 400))
		b := digest(take(name, small, 11, 500, 400))
		c := digest(take(name, small, 12, 500, 400))
		if a != b {
			t.Errorf("%s: the same seed gave two request lists", name)
		}
		if a == c {
			t.Errorf("%s: two seeds gave the same request list", name)
		}
	}
}

// TestMixesCoverEveryClass keeps the frozen mixes honest: shares sum to one and
// the two mixes together reach all thirteen classes.
func TestMixesCoverEveryClass(t *testing.T) {
	seen := map[string]bool{}
	for _, mix := range [][]share{exploreMix, evolveMix} {
		total := 0.0
		for _, s := range mix {
			total += s.share
			seen[s.class] = true
		}
		if math.Abs(total-1) > 1e-9 {
			t.Errorf("mix shares sum to %v", total)
		}
	}
	for _, c := range classes {
		if !seen[c] {
			t.Errorf("no mix sends %s", c)
		}
	}
}

func TestOracleRejectsCorruptedBody(t *testing.T) {
	r := testRunner(t)
	lc, err := r.setUp()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if _, err := lc.daemon.stop(); err != nil {
			t.Error(err)
		}
	}()
	orc, err := newOracle(lc.tsv, lc.kb, r.sz)
	if err != nil {
		t.Fatal(err)
	}
	defer orc.close()
	for _, rq := range take(wFirstTouch, r.sz, r.seed, orc.fw.RuleDict().Len(), 40) {
		rep, err := lc.daemon.cli.do(rq, "", true)
		if err != nil {
			t.Fatal(err)
		}
		if err := orc.check(rq, rep.body); err != nil {
			t.Fatalf("%s: a served answer was rejected: %v", rq.target, err)
		}
		// Every answer carries a count or a total; one more rule than there
		// is must not get past the oracle.
		var bad []byte
		for _, field := range []string{`"count":`, `"total":`, `"numRules":`, `"onlyA":[`} {
			if i := bytes.Index(rep.body, []byte(field)); i >= 0 {
				j := i + len(field)
				bad = append(append(append([]byte(nil), rep.body[:j]...), '9'), rep.body[j:]...)
				if field == `"onlyA":[` {
					bad = append(append(append([]byte(nil), rep.body[:j]...), []byte("0,0,")...), rep.body[j:]...)
				}
				break
			}
		}
		if bad == nil {
			t.Fatalf("%s: no field to corrupt in %s", rq.target, rep.body)
		}
		if err := orc.check(rq, bad); err == nil {
			t.Errorf("%s: the oracle accepted a corrupted answer", rq.target)
		}
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	series := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n          int
		want, used float64
	}{
		{2000, 1980, 0.99}, // 20 beyond: p99 stands
		{1000, 990, 0.99},  // exactly 10 beyond
		{500, 490, 0.98},   // p99 would leave 5: lowered until 10 lie beyond
		{15, 8, 0.5},       // too few for any tail: the median
	} {
		got, used := tailPercentile(series(c.n), 0.99)
		if got != c.want || math.Abs(used-c.used) > 1e-9 {
			t.Errorf("n=%d: got value %v at quantile %v, want %v at %v", c.n, got, used, c.want, c.used)
		}
		if beyond := float64(c.n) - got; c.n >= 20 && beyond < 10 {
			t.Errorf("n=%d: only %v samples beyond the reported percentile", c.n, beyond)
		}
	}
	if v, _ := tailPercentile(nil, 0.99); v != 0 {
		t.Errorf("empty input gave %v", v)
	}
}
