package harness

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"tara/internal/gen"
	"tara/internal/txdb"
)

// tinySpec is a miniature dataset used to smoke-test every experiment
// runner quickly; the real specs run at full size in cmd/tarabench.
func tinySpec() DatasetSpec {
	return DatasetSpec{
		Name:      "tiny",
		Batches:   4,
		GenSupp:   0.01,
		GenConf:   0.1,
		MaxLen:    3,
		SuppSweep: []float64{0.01, 0.04},
		ConfSweep: []float64{0.1, 0.5},
		FixedSupp: 0.01,
		FixedConf: 0.3,
		Build: func(scale float64) (*txdb.DB, error) {
			return gen.Retail(gen.RetailParams{
				Transactions: 1200,
				NumItems:     200,
				AvgLen:       8,
				Seed:         7,
			})
		},
	}
}

func TestDatasetByName(t *testing.T) {
	for _, name := range []string{"retail", "t5k", "t2k", "webdocs"} {
		spec, err := DatasetByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Name != name {
			t.Errorf("DatasetByName(%q).Name = %q", name, spec.Name)
		}
		if spec.GenSupp <= 0 || spec.GenConf < 0 || spec.Batches <= 0 {
			t.Errorf("%s: implausible spec %+v", name, spec)
		}
		if len(spec.SuppSweep) == 0 || len(spec.ConfSweep) == 0 {
			t.Errorf("%s: missing sweeps", name)
		}
		if spec.SuppSweep[0] < spec.GenSupp {
			t.Errorf("%s: sweep starts below generation threshold", name)
		}
	}
	if _, err := DatasetByName("nope"); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestBuildSystems(t *testing.T) {
	sys, err := BuildSystems(tinySpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if sys.TARA.Windows() != 4 {
		t.Errorf("TARA windows = %d", sys.TARA.Windows())
	}
	base, others := sys.BaseWindow()
	if base != 3 || len(others) != 3 {
		t.Errorf("BaseWindow = %d, %v", base, others)
	}
	if got := sys.CompareWindows(); len(got) != 4 || got[3] != 3 {
		t.Errorf("CompareWindows = %v", got)
	}
}

func TestTimeIt(t *testing.T) {
	d, err := timeIt(func() error { time.Sleep(3 * time.Millisecond); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if d < 2*time.Millisecond {
		t.Errorf("timeIt = %v for a 3ms op", d)
	}
	d, err = timeIt(func() error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if d < 0 {
		t.Errorf("timeIt = %v", d)
	}
}

func TestFig7SmokeTiny(t *testing.T) {
	var buf bytes.Buffer
	if err := runFig7(&buf, 1, []DatasetSpec{tinySpec()}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "tiny") || !strings.Contains(out, "supp=0.04") {
		t.Errorf("unexpected fig7 output:\n%s", out)
	}
}

func TestFig8SmokeTiny(t *testing.T) {
	var buf bytes.Buffer
	if err := runFig8(&buf, 1, []DatasetSpec{tinySpec()}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "conf=0.5") {
		t.Errorf("unexpected fig8 output:\n%s", buf.String())
	}
}

func TestFig9SmokeTiny(t *testing.T) {
	var buf bytes.Buffer
	if err := runFig9(&buf, 1, []DatasetSpec{tinySpec()}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "TARA/H-Mine") {
		t.Errorf("unexpected fig9 output:\n%s", buf.String())
	}
}

func TestFig10And11SmokeTiny(t *testing.T) {
	var buf bytes.Buffer
	if err := runFig10(&buf, 1, []DatasetSpec{tinySpec()}); err != nil {
		t.Fatal(err)
	}
	if err := runFig11(&buf, 1, []DatasetSpec{tinySpec()}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "supp2=") || !strings.Contains(buf.String(), "conf2=") {
		t.Errorf("unexpected fig10/11 output:\n%s", buf.String())
	}
}

func TestFig12SmokeTiny(t *testing.T) {
	var buf bytes.Buffer
	if err := runFig12(&buf, 1, []DatasetSpec{tinySpec()}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "tar-archive") {
		t.Errorf("unexpected fig12 output:\n%s", buf.String())
	}
}

func TestRollUpSmokeTiny(t *testing.T) {
	var buf bytes.Buffer
	if err := runRollUp(&buf, 1, []DatasetSpec{tinySpec()}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "true") {
		t.Errorf("roll-up bound not confirmed:\n%s", buf.String())
	}
}

func TestTab3SmokeTiny(t *testing.T) {
	var buf bytes.Buffer
	if err := runTab3(&buf, 1, []DatasetSpec{tinySpec()}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "tiny") {
		t.Errorf("unexpected tab3 output:\n%s", buf.String())
	}
}

func TestFig6AndTab2Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("pharmacovigilance smoke skipped in -short mode")
	}
	var buf bytes.Buffer
	if err := RunFig6(&buf, 0.05); err != nil { // floors keep quarters at 1500 reports
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2013") {
		t.Errorf("unexpected fig6 output:\n%s", buf.String())
	}
	buf.Reset()
	if err := RunTab2(&buf, 0.05); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Confidence", "Reporting Ratio", "MARAS"} {
		if !strings.Contains(out, want) {
			t.Errorf("tab2 output missing %q:\n%s", want, out)
		}
	}
}

func TestRunDispatcher(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("tab4", &buf, 1); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("no output from tab4")
	}
	// Neither a made-up id nor a performance experiment benchmark/ replaced
	// (online, load) is a paper experiment, so "all" runs none of them.
	for _, id := range []string{"fig99", "online", "load"} {
		if err := Run(id, &buf, 1); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("Run(%q) = %v, want the unknown-experiment error", id, err)
		}
	}
	want := []string{"fig10", "fig11", "fig12", "fig6", "fig7", "fig8", "fig9", "rollup", "tab1", "tab2", "tab3", "tab4"}
	if got := ExperimentIDs(); !slices.Equal(got, want) {
		t.Errorf("ExperimentIDs() = %v, want the paper's experiments %v", got, want)
	}
}

func TestQ1TimesOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	// The headline result, at small scale: TARA answers the Q1 workload
	// faster than DCTAR's from-scratch mining.
	spec := tinySpec()
	sys, err := BuildSystems(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	times, err := q1Times(sys, spec.FixedSupp, spec.FixedConf)
	if err != nil {
		t.Fatal(err)
	}
	if times["TARA"] >= times["DCTAR"] {
		t.Errorf("TARA %v not faster than DCTAR %v", times["TARA"], times["DCTAR"])
	}
	if times["TARA-R"] <= 0 || times["HMine"] <= 0 || times["PARAS"] <= 0 {
		t.Errorf("missing timings: %v", times)
	}
}

func TestTab4MentionsPaperThresholds(t *testing.T) {
	var buf bytes.Buffer
	if err := RunTab4(&buf, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"0.0002", "0.0012", "0.1123"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 4 output missing paper threshold %s:\n%s", want, out)
		}
	}
}

func TestRunCSVSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("CSV smoke skipped in -short mode")
	}
	// Patch in the tiny spec by calling the internals directly: RunCSV
	// iterates the real specs, so use the smallest sweep via fig10 at the
	// floor scale but verify only the header and shape on one dataset by
	// intercepting early — instead, run the collector machinery directly.
	col := newCSVCollector("fig7")
	col.add("tiny", "supp=0.01", map[string]time.Duration{"TARA": time.Microsecond, "DCTAR": time.Millisecond})
	var buf bytes.Buffer
	if err := col.flush(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "experiment,dataset,param,system,ns") {
		t.Errorf("missing CSV header: %q", out)
	}
	if !strings.Contains(out, "fig7,tiny,supp=0.01,TARA,1000") {
		t.Errorf("missing row: %q", out)
	}
	if !strings.Contains(out, "DCTAR,1000000") {
		t.Errorf("missing DCTAR row: %q", out)
	}
}

func TestRunCSVUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := RunCSV("fig9", &buf, 1); err == nil {
		t.Error("fig9 has no CSV form but was accepted")
	}
}

// TestTab1MatchesPaperValues verifies the running example reproduces the
// exact published parameter values for R1..R6 across T1 and T2.
func TestTab1MatchesPaperValues(t *testing.T) {
	fw, err := BuildTab1()
	if err != nil {
		t.Fatal(err)
	}
	find := func(w int, ant, cons string) (supp, conf float64, ok bool) {
		views, err := fw.Mine(w, 0.05, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range views {
			if v.Rule.Format(fw.ItemDict()) == "["+ant+"] => ["+cons+"]" {
				return v.Support(), v.Confidence(), true
			}
		}
		return 0, 0, false
	}
	approx := func(a, b float64) bool { return a > b-0.005 && a < b+0.005 }
	cases := []struct {
		w          int
		ant, cons  string
		supp, conf float64
	}{
		{0, "a", "b", 2.0 / 11, 0.5},  // R1 in T1: (0.18, 0.5)
		{0, "b", "a", 2.0 / 11, 0.4},  // R2 in T1: (0.18, 0.4)
		{0, "a", "c", 2.0 / 11, 0.5},  // R3 in T1: (0.18, 0.5)
		{0, "c", "a", 2.0 / 11, 0.5},  // R4 in T1: (0.18, 0.5)
		{0, "c", "b", 1.0 / 11, 0.25}, // R5 in T1: (0.09, 0.25)
		{1, "a", "b", 1.0 / 9, 0.25},  // R1 in T2: (0.11, 0.25)
		{1, "b", "a", 1.0 / 9, 0.5},   // R2 in T2: (0.11, 0.5)
		{1, "a", "c", 3.0 / 9, 0.75},  // R3 in T2: (0.33, 0.75)
		{1, "c", "a", 3.0 / 9, 0.75},  // R4 in T2: (0.33, 0.75)
		{1, "c", "b", 1.0 / 9, 0.25},  // R5 in T2: (0.11, 0.25)
		{1, "b", "c", 1.0 / 9, 0.5},   // R6 in T2: (0.11, 0.5)
	}
	for _, c := range cases {
		supp, conf, ok := find(c.w, c.ant, c.cons)
		if !ok {
			t.Fatalf("rule %s=>%s missing in window %d", c.ant, c.cons, c.w)
		}
		if !approx(supp, c.supp) || !approx(conf, c.conf) {
			t.Errorf("window %d %s=>%s: (%.3f, %.3f), want (%.3f, %.3f)",
				c.w, c.ant, c.cons, supp, conf, c.supp, c.conf)
		}
	}
	// R6 (b=>c) must be absent in T1 (confidence 1/5 = 0.2 < 0.25).
	if _, _, ok := find(0, "b", "c"); ok {
		t.Error("R6 unexpectedly present in T1")
	}
}

func TestRunTab1Output(t *testing.T) {
	var buf bytes.Buffer
	if err := RunTab1(&buf, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "(0.18, 0.50)", "(0.33, 0.75)", "(0.11, 0.25)"} {
		if !strings.Contains(out, want) {
			t.Errorf("tab1 output missing %q:\n%s", want, out)
		}
	}
}
