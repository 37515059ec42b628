// Command benchmark is the repository's one benchmark: four workloads driven
// through the shipped binaries (`tara` builds and saves a knowledge base,
// `tarad` serves it over loopback HTTP to one closed-loop client), plus a layer
// ladder that replays the same requests against each layer's public functions
// to say where the time goes. README.md has the tables and the reasons.
//
// Run it from the repository root through run.sh, which compiles it:
//
//	bash benchmark/run.sh                                   # all four, both passes
//	bash benchmark/run.sh --workload evolve --seed 7 --seconds 12 --trace 0
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics;
// without --trace both passes run. The last line of standard output is one
// JSON object {correct, attempted, failed, metrics}.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

type envInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"goVersion"`
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	OS         string  `json:"os"`
	Arch       string  `json:"arch"`
	CompileS   float64 `json:"compile_s"`
}

func environment(repo string) envInfo {
	e := envInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", OS: runtime.GOOS, Arch: runtime.GOARCH,
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = repo
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	// A checkout that is not a git repository keeps "unknown".
	if head, err := git("rev-parse", "HEAD"); err == nil {
		e.Commit = head
		status, _ := git("status", "--porcelain")
		e.Dirty = status != ""
	}
	return e
}

// workloadResult is one workload's part of results.json.
type workloadResult struct {
	Name      string             `json:"name"`
	Seed      int64              `json:"seed"`
	Ops       int                `json:"ops"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"endToEnd,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	SelfShare map[string]float64 `json:"selfShare,omitempty"`
	Samples   map[string]float64 `json:"samples"`
}

type results struct {
	Env       envInfo          `json:"env"`
	Workloads []workloadResult `json:"workloads"`
}

// runWorkload runs one workload's passes: the end-to-end pass always (the
// traced pass measures against it), the ladder when layers is set. With
// endToEndToo false the end-to-end pass sets up once and its metrics are not
// reported.
func (r *runner) runWorkload(name string, endToEndToo, layers bool) (workloadResult, []span, error) {
	setups := r.sz.setups
	if !endToEndToo {
		setups = 1
	}
	var (
		o   *outcome
		err error
	)
	if name == wIngest {
		o, err = r.ingest(setups)
	} else {
		o, err = r.serve(name, setups)
	}
	if err != nil {
		return workloadResult{}, nil, err
	}
	res := workloadResult{
		Name: name, Seed: r.seed, Ops: o.attempted, Failed: o.failed,
		Samples: map[string]float64{
			"latencies":  float64(len(o.records)),
			"measured_s": o.elapsed.Seconds(),
			"rules":      float64(o.numRules),
		},
	}
	if endToEndToo {
		res.EndToEnd = o.e2e
	}
	if !layers {
		return res, nil, nil
	}
	res.Layers = map[string]float64{}
	for _, d := range perLayer {
		res.Layers[d.name] = 0
	}
	res.Samples["query_p99_quantile"] = classMetrics(res.Layers, o)
	if name == wIngest {
		t, err := climbIngest(o.tsv, r.out, r.sz)
		if err != nil {
			return res, nil, err
		}
		ingestLayers(res.Layers, t)
		return res, t.spans, nil
	}
	n := r.sz.ladder[name]
	reqs := take(name, r.sz, r.seed, o.numRules, n)
	warm := 0
	if name == wRevisit {
		pool := newGenerator(name, r.sz, r.seed, o.numRules).pool
		warm = len(pool)
		reqs = append(pool, reqs...)
	}
	lr, err := climb(name, o.kb, filepath.Join(r.out, "ladder-server.log"), reqs, warm, func() (*daemon, error) { return r.restart(o.kb) })
	if err != nil {
		return res, nil, err
	}
	if st, err := os.Stat(o.kb); err == nil {
		lr.kbBytes = st.Size()
	}
	res.SelfShare = servingLayers(res.Layers, o, lr)
	res.Samples["ladder_requests"] = float64(n)
	return res, lr.trace.spans, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run() error {
	var (
		workload = flag.String("workload", "all", "one of "+strings.Join(workloadNames, ", ")+", or all")
		seed     = flag.Int64("seed", 1, "the only input to the dataset and request generators")
		seconds  = flag.Float64("seconds", 12, "length of each measured interval")
		traceArg = flag.String("trace", "", "0: end-to-end metrics only; 1: per-layer metrics only; unset: both")
		outArg   = flag.String("out", "", "directory for results.json, trace.jsonl and the children's stderr (default: a directory under .bench_build that is removed afterwards)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	names := workloadNames
	if *workload != "all" {
		names = nil
		for _, n := range workloadNames {
			if n == *workload {
				names = []string{n}
			}
		}
		if names == nil {
			return fmt.Errorf("unknown workload %q (want one of %s, or all)", *workload, strings.Join(workloadNames, ", "))
		}
	}
	endToEndToo, layers := true, true
	switch *traceArg {
	case "0":
		layers = false
	case "1":
		endToEndToo = false
	case "":
	default:
		return fmt.Errorf("--trace wants 0 or 1, got %q", *traceArg)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}

	repo, err := os.Getwd()
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(repo, "cmd", "tarad")); err != nil {
		return fmt.Errorf("run from the root of the repository: %w", err)
	}
	out := *outArg
	if out == "" {
		out = filepath.Join(repo, ".bench_build", fmt.Sprintf("run-%s-%d-%d", *workload, *seed, os.Getpid()))
		defer os.RemoveAll(out)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}

	r := &runner{out: out, sz: full, seed: *seed, seconds: *seconds, log: os.Stderr}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		r.kids.killAll()
		os.Exit(1)
	}()
	defer r.kids.killAll()

	env := environment(repo)
	taraBin, tarad, took, err := compile(repo, filepath.Join(out, "bin"))
	if err != nil {
		return err
	}
	r.taraBin, r.tarad, env.CompileS = taraBin, tarad, took.Seconds()
	fmt.Printf("all compile_s %.3f s\n", env.CompileS)
	r.pin()

	all := results{Env: env}
	var spans []span
	final := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Metrics: map[string]metricValue{}}
	for _, name := range names {
		res, sp, err := r.runWorkload(name, endToEndToo, layers)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		all.Workloads = append(all.Workloads, res)
		spans = append(spans, sp...)
		final.Attempted += res.Ops
		final.Failed += res.Failed
		prefix := ""
		if len(names) > 1 {
			prefix = name + "."
		}
		emit := func(defs []metricDef, vals map[string]float64) {
			for _, d := range defs {
				fmt.Printf("%s %s %v %s\n", name, d.name, vals[d.name], d.unit)
				final.Metrics[prefix+d.name] = metricValue{vals[d.name], d.unit}
			}
		}
		if res.EndToEnd != nil {
			emit(endToEnd, res.EndToEnd)
		}
		if res.Layers != nil {
			emit(perLayer, res.Layers)
		}
	}
	if err := writeJSON(filepath.Join(out, "results.json"), all); err != nil {
		return err
	}
	if layers {
		if err := writeTrace(filepath.Join(out, "trace.jsonl"), spans); err != nil {
			return err
		}
	}
	final.Correct = final.Failed == 0
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !final.Correct {
		return fmt.Errorf("%d of %d operations failed", final.Failed, final.Attempted)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
