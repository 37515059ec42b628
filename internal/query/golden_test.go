package query

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/cli_golden.txt from the current Execute output")

// goldenLines is one query per class plus the variants whose text differs in
// shape: lift bounds, paging, emerging's defaulted to=, empty answers. The
// export cases write into a temp dir whose path is masked as $TMP.
var goldenLines = []string{
	"mine w=0 supp=0.05 conf=0.2",
	"mine w=1 supp=0.01 conf=0.05",
	"mine w=0 supp=0.05 conf=0.2 lift=1.1",
	"mine w=0 supp=0.05 conf=0.2 limit=3 offset=2",
	"mine w=0 supp=0.01 conf=0.05 offset=30",
	"mine w=0 supp=0.9 conf=0.9",
	"count w=0 supp=0.05 conf=0.2",
	"count w=2 supp=1 conf=1",
	"traj w=3 supp=0.05 conf=0.2 in=0,1,2",
	"traj w=3 supp=0.01 conf=0.05 in=0,2 limit=2 offset=1",
	"trajectory w=3 supp=0.9 conf=0.9 in=0",
	"compare w=0,1,2,3 a=0.05,0.2 b=0.2,0.5",
	"recommend w=0 supp=0.05 conf=0.2",
	"region w=1 supp=1 conf=1",
	"recommend w=0 supp=0.05 conf=0.2 lift=1.2",
	"recommend w=0 supp=0.05 conf=0.2 lift=100",
	"rollup from=0 to=3 supp=0.05 conf=0.2",
	"rollup from=1 to=2 supp=0.01 conf=0.05 limit=4 offset=3",
	"rollup from=0 to=3 supp=0.9 conf=0.9",
	"drill rule=0 from=0 to=3",
	"drilldown rule=88 from=0 to=2",
	"about w=0 supp=0.05 conf=0.2 items=milk",
	"about w=0 supp=0.01 conf=0.05 items=milk,bread limit=2",
	"about w=0 supp=0.05 conf=0.2 items=caviar",
	"rank from=0 to=3 supp=0.05 conf=0.2 by=coverage k=5",
	"rank from=0 to=3 supp=0.05 conf=0.2",
	"rank from=1 to=2 supp=0.01 conf=0.05 by=volatility k=0",
	"rank from=0 to=3 supp=0.9 conf=0.9 by=stability",
	"periodic from=0 to=3 supp=0.05 conf=0.2 period=2 k=5",
	"plot w=0",
	"panorama w=0 supp=0.05 conf=0.4",
	"export w=0 supp=0.05 conf=0.2 file=$TMP/rules.csv",
	"export w=0 supp=0.05 conf=0.2 format=json limit=3 file=$TMP/rules.json",
	"topk from=0 to=3 supp=0.05 conf=0.2",
	"topk from=0 to=3 supp=0.01 conf=0.05 by=drift k=8 limit=3 offset=2",
	"topk from=0 to=3 supp=0.9 conf=0.9 by=volatility",
	"similar from=0 to=3 ref=0.1,0.2,0.15,0.2",
	"similar from=0 to=3 ref=0.3,0.3,0.3,0.3 metric=max supp=0.05 conf=0.2 k=6 limit=2 offset=1",
	"emerging from=0 supp=0.02 conf=0.1",
	"emerging from=0 to=2 supp=0.02 conf=0.1",
	"emerging from=1 supp=0.01 conf=0.05 limit=2 offset=1",
	"emerging from=0 supp=0.9 conf=0.9",
}

// TestExecuteGolden pins the CLI text of every query class byte for byte
// (the trailing "(elapsed)" line stripped). The golden file was recorded from
// the per-class text executors before Execute became a renderer over the
// typed answer; benchmark/serve.go parses the first token of count's line.
func TestExecuteGolden(t *testing.T) {
	f := buildFramework(t)
	tmp := t.TempDir()
	var got bytes.Buffer
	for _, line := range goldenLines {
		q, err := Parse(strings.ReplaceAll(line, "$TMP", tmp))
		if err != nil {
			t.Fatalf("Parse(%q): %v", line, err)
		}
		var buf bytes.Buffer
		if err := Execute(&buf, f, q); err != nil {
			t.Fatalf("Execute(%q): %v", line, err)
		}
		out := strings.ReplaceAll(buf.String(), tmp, "$TMP")
		body, elapsed, ok := cutLastLine(out)
		if !ok || !strings.HasPrefix(elapsed, "(") || !strings.HasSuffix(elapsed, ")") {
			t.Fatalf("Execute(%q): output does not end in an (elapsed) line: %q", line, out)
		}
		got.WriteString("tara> " + line + "\n" + body)
	}
	path := filepath.Join("testdata", "cli_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	query := ""
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if strings.HasPrefix(wl[i], "tara> ") {
			query = wl[i]
		}
		if gl[i] != wl[i] {
			t.Fatalf("CLI text differs from golden at line %d (under %q):\n got: %q\nwant: %q", i+1, query, gl[i], wl[i])
		}
	}
	t.Fatalf("CLI text differs from golden in length: got %d lines, want %d", len(gl), len(wl))
}

// cutLastLine splits s (newline-terminated) into everything before its last
// line and that line without the newline.
func cutLastLine(s string) (body, last string, ok bool) {
	if !strings.HasSuffix(s, "\n") {
		return "", "", false
	}
	s = strings.TrimSuffix(s, "\n")
	i := strings.LastIndexByte(s, '\n')
	return s[:i+1], s[i+1:], true
}
