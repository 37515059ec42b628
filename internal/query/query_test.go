package query

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tara/internal/tara"
	"tara/internal/txdb"
)

func TestParseMine(t *testing.T) {
	q, err := Parse("mine w=2 supp=0.01 conf=0.2")
	if err != nil {
		t.Fatal(err)
	}
	if q.Kind != Mine || q.Window != 2 || q.MinSupp != 0.01 || q.MinConf != 0.2 {
		t.Errorf("parsed %+v", q)
	}
}

func TestParseTrajectory(t *testing.T) {
	q, err := Parse("traj w=3 supp=0.05 conf=0.3 in=0,1,2")
	if err != nil {
		t.Fatal(err)
	}
	if q.Kind != Trajectory || len(q.Windows) != 3 || q.Windows[2] != 2 {
		t.Errorf("parsed %+v", q)
	}
}

func TestParseCompare(t *testing.T) {
	q, err := Parse("compare w=0,1 a=0.01,0.2 b=0.05,0.4")
	if err != nil {
		t.Fatal(err)
	}
	if q.Kind != Compare || q.MinSupp != 0.01 || q.MinConf != 0.2 || q.MinSupp2 != 0.05 || q.MinConf2 != 0.4 {
		t.Errorf("parsed %+v", q)
	}
}

func TestParseRollUpDrill(t *testing.T) {
	q, err := Parse("rollup from=0 to=3 supp=0.02 conf=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if q.Kind != RollUp || q.From != 0 || q.To != 3 {
		t.Errorf("parsed %+v", q)
	}
	q, err = Parse("drill rule=7 from=1 to=2")
	if err != nil {
		t.Fatal(err)
	}
	if q.Kind != DrillDown || q.RuleID != 7 {
		t.Errorf("parsed %+v", q)
	}
}

func TestParseAboutRank(t *testing.T) {
	q, err := Parse("about w=0 supp=0.01 conf=0.2 items=milk,bread")
	if err != nil {
		t.Fatal(err)
	}
	if q.Kind != About || len(q.Items) != 2 || q.Items[1] != "bread" {
		t.Errorf("parsed %+v", q)
	}
	q, err = Parse("rank from=0 to=3 supp=0.01 conf=0.2 by=volatility k=5")
	if err != nil {
		t.Fatal(err)
	}
	if q.Kind != Rank || q.Measure != "volatility" || q.TopK != 5 {
		t.Errorf("parsed %+v", q)
	}
	// Defaults.
	q, err = Parse("rank from=0 to=1 supp=0.01 conf=0.2")
	if err != nil {
		t.Fatal(err)
	}
	if q.Measure != "stability" || q.TopK != 10 {
		t.Errorf("defaults not applied: %+v", q)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"frobnicate w=0",
		"mine w=0 supp=0.01",             // missing conf
		"mine w=zero supp=0.01 conf=0.2", // bad int
		"mine w=0 supp=high conf=0.2",    // bad float
		"compare w=0 a=0.01 b=0.05,0.4",  // malformed pair
		"traj w=0 supp=0.01 conf=0.2",    // missing in=
		"about w=0 supp=0.01 conf=0.2",   // missing items=
		"mine w 0",                       // malformed field
		"compare w=0,x a=0.1,0.2 b=0.1,0.2",
	}
	for _, line := range bad {
		if _, err := Parse(line); err == nil {
			t.Errorf("Parse(%q) accepted", line)
		}
	}
}

// TestParseRuleIDAndPairErrors pins two decode-time rejections: a rule id
// outside uint32 must not wrap around to another rule's id, and a malformed
// a=/b= pair names the field it came from like every other parameter.
func TestParseRuleIDAndPairErrors(t *testing.T) {
	for _, tc := range []struct{ line, want string }{
		{"drill rule=4294967296 from=0 to=1", `query: rule "4294967296" must be an integer in [0, 4294967295]`},
		{"drill rule=4294967297 from=0 to=1", `query: rule "4294967297" must be an integer in [0, 4294967295]`},
		{"drill rule=-1 from=0 to=1", `query: rule "-1" must be an integer in [0, 4294967295]`},
		{"drill rule=seven from=0 to=1", `query: rule "seven" must be an integer in [0, 4294967295]`},
		{"drill from=0 to=1", "query: missing rule="},
		{"compare w=0 a=x,0.2 b=0.05,0.4", `query: bad a: strconv.ParseFloat: parsing "x": invalid syntax`},
		{"compare w=0 a=0.01,0.2 b=0.05,y", `query: bad b: strconv.ParseFloat: parsing "y": invalid syntax`},
	} {
		if _, err := Parse(tc.line); err == nil || err.Error() != tc.want {
			t.Errorf("Parse(%q): err = %v, want %s", tc.line, err, tc.want)
		}
	}
	q, err := Parse("drill rule=4294967295 from=0 to=1")
	if err != nil || q.RuleID != 4294967295 {
		t.Errorf("largest rule id: RuleID = %d, err = %v", q.RuleID, err)
	}
}

func buildFramework(t testing.TB) *tara.Framework {
	t.Helper()
	return buildFrameworkSeed(t, 5)
}

// buildFrameworkSeed builds a four-window knowledge base over a random
// basket stream; buildFramework's seed is the one the CLI golden pins.
func buildFrameworkSeed(t testing.TB, seed int64) *tara.Framework {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	db := txdb.NewDB()
	names := []string{"milk", "bread", "beer", "eggs", "jam", "tea"}
	for i := 0; i < 400; i++ {
		var tx []string
		if r.Float64() < 0.5 {
			tx = append(tx, "milk", "bread")
		}
		for j := 0; j < 1+r.Intn(3); j++ {
			tx = append(tx, names[r.Intn(len(names))])
		}
		db.Add(int64(i), tx...)
	}
	f, err := tara.Build(db, 0, 4, tara.Config{GenMinSupport: 0.01, GenMinConf: 0.05, MaxItemsetLen: 3, ContentIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestExecuteMineOutput(t *testing.T) {
	f := buildFramework(t)
	q, _ := Parse("mine w=0 supp=0.05 conf=0.2")
	var buf bytes.Buffer
	if err := Execute(&buf, f, q); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "rules in window 0") {
		t.Errorf("unexpected output: %q", out)
	}
	if !strings.Contains(out, "supp=") {
		t.Errorf("rules not listed: %q", out)
	}
}

func TestExecuteRankBadMeasure(t *testing.T) {
	f := buildFramework(t)
	q, err := Parse("rank from=0 to=3 supp=0.05 conf=0.2 by=zeal")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Execute(&buf, f, q); err == nil {
		t.Error("unknown measure accepted")
	}
}

func TestExecutePropagatesErrors(t *testing.T) {
	f := buildFramework(t)
	q, _ := Parse("mine w=99 supp=0.05 conf=0.2")
	var buf bytes.Buffer
	if err := Execute(&buf, f, q); err == nil {
		t.Error("bad window accepted")
	}
}

func TestParsePeriodic(t *testing.T) {
	q, err := Parse("periodic from=0 to=8 supp=0.01 conf=0.2 period=3 k=4")
	if err != nil {
		t.Fatal(err)
	}
	if q.Kind != Periodic || q.Period != 3 || q.TopK != 4 {
		t.Errorf("parsed %+v", q)
	}
	if _, err := Parse("periodic from=0 to=8 supp=0.01 conf=0.2"); err == nil {
		t.Error("missing period accepted")
	}
}

func TestExecutePeriodic(t *testing.T) {
	f := buildFramework(t)
	q, err := Parse("periodic from=0 to=3 supp=0.05 conf=0.2 period=2 k=5")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Execute(&buf, f, q); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "periodicity") {
		t.Errorf("unexpected output: %q", buf.String())
	}
}

func TestParseAndExecutePlot(t *testing.T) {
	q, err := Parse("plot w=0")
	if err != nil {
		t.Fatal(err)
	}
	if q.Kind != Plot || q.MinSupp != -1 || q.MinConf != -1 {
		t.Errorf("parsed %+v", q)
	}
	q, err = Parse("plot w=0 supp=0.05 conf=0.4")
	if err != nil {
		t.Fatal(err)
	}
	if q.MinSupp != 0.05 || q.MinConf != 0.4 {
		t.Errorf("parsed %+v", q)
	}
	f := buildFramework(t)
	var buf bytes.Buffer
	if err := Execute(&buf, f, q); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "rules at") {
		t.Errorf("plot output: %q", buf.String())
	}
}

func TestParseMineWithLift(t *testing.T) {
	q, err := Parse("mine w=0 supp=0.05 conf=0.2 lift=1.5")
	if err != nil {
		t.Fatal(err)
	}
	if q.MinLift != 1.5 {
		t.Errorf("MinLift = %g", q.MinLift)
	}
	f := buildFramework(t)
	var buf bytes.Buffer
	if err := Execute(&buf, f, q); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "lift>=1.5") {
		t.Errorf("output: %q", buf.String())
	}
}

func TestExecuteRecommendND(t *testing.T) {
	f := buildFramework(t)
	q, err := Parse("recommend w=0 supp=0.05 conf=0.2 lift=1.2")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Execute(&buf, f, q); err != nil {
		t.Fatal(err)
	}
	kept, err := f.MineFiltered(0, 0.05, 0.2, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, fmt.Sprintf(" rules=%d lift(", len(kept))) {
		t.Errorf("lift region output: %q", out)
	}
}

func TestExport(t *testing.T) {
	f := buildFramework(t)
	dir := t.TempDir()

	csvPath := filepath.Join(dir, "rules.csv")
	q, err := Parse("export w=0 supp=0.05 conf=0.2 file=" + csvPath)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Execute(&buf, f, q); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	views, _ := f.Mine(0, 0.05, 0.2)
	if len(lines) != len(views)+1 {
		t.Fatalf("CSV has %d lines, want %d rules + header", len(lines), len(views))
	}
	if !strings.HasPrefix(lines[0], "id,antecedent,consequent,support") {
		t.Errorf("header = %q", lines[0])
	}

	jsonPath := filepath.Join(dir, "rules.json")
	q, err = Parse("export w=0 supp=0.05 conf=0.2 format=json file=" + jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := Execute(&buf, f, q); err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	data, err = os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(rows) != len(views) {
		t.Fatalf("JSON has %d rows, want %d", len(rows), len(views))
	}
	if _, ok := rows[0]["antecedent"]; !ok {
		t.Error("JSON rows missing antecedent field")
	}
}

func TestExportParseErrors(t *testing.T) {
	if _, err := Parse("export w=0 supp=0.05 conf=0.2"); err == nil {
		t.Error("missing file= accepted")
	}
	if _, err := Parse("export w=0 supp=0.05 conf=0.2 file=x format=xml"); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestAppendRuleJSON(t *testing.T) {
	f := buildFramework(t)
	views, err := f.Mine(0, 0.05, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(views) == 0 {
		t.Fatal("empty ruleset")
	}
	want := make([]RuleJSON, len(views))
	for i, v := range views {
		want[i] = toRuleJSON(f, v)
	}

	// Fresh materialization matches the per-rule conversion exactly.
	got := AppendRuleJSON(nil, f, views)
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		a, _ := json.Marshal(got[i])
		b, _ := json.Marshal(want[i])
		if !bytes.Equal(a, b) {
			t.Fatalf("row %d: got %s, want %s", i, a, b)
		}
	}

	// Appending extends rather than replaces.
	combined := AppendRuleJSON(got, f, views[:1])
	if len(combined) != len(views)+1 {
		t.Fatalf("appended length %d, want %d", len(combined), len(views)+1)
	}

	// Reusing the buffer with dst[:0] does not grow it again when capacity
	// suffices — the zero-steady-state-alloc contract of the warm path.
	buf := AppendRuleJSON(nil, f, views)
	before := cap(buf)
	buf = AppendRuleJSON(buf[:0], f, views)
	if cap(buf) != before {
		t.Fatalf("reuse reallocated: cap %d -> %d", before, cap(buf))
	}
}
