package query

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// exampleLine turns a class's help line into a query Parse accepts: optional
// brackets dropped, the first of each a|b alternative taken.
func exampleLine(c Class) string {
	fields := strings.Fields(strings.NewReplacer("[", "", "]", "").Replace(c.Usage))
	for i, f := range fields {
		fields[i], _, _ = strings.Cut(f, "|")
	}
	return c.Name + " " + strings.Join(fields, " ")
}

// TestClassTable ties the class table to the parser: every row sits at its
// Kind's index, every name and alias resolves to that row and no other, and
// the help line of every class is itself a valid query of that class.
func TestClassTable(t *testing.T) {
	seen := map[string]Kind{}
	for k, c := range Classes {
		if c.Kind != Kind(k) {
			t.Errorf("Classes[%d] declares Kind %d", k, c.Kind)
		}
		if c.Name == "" || c.Usage == "" {
			t.Errorf("Classes[%d] has an empty name or usage: %+v", k, c)
		}
		if c.Route != "" && !strings.HasPrefix(c.Route, "/") {
			t.Errorf("class %s: route %q does not start with /", c.Name, c.Route)
		}
		for _, name := range append([]string{c.Name}, c.Aliases...) {
			if prev, dup := seen[name]; dup {
				t.Errorf("operation name %q names both kind %d and kind %d", name, prev, c.Kind)
			}
			seen[name] = c.Kind
			line := name + strings.TrimPrefix(exampleLine(c), c.Name)
			q, err := Parse(line)
			if err != nil {
				t.Errorf("Parse(%q): %v", line, err)
			} else if q.Kind != c.Kind {
				t.Errorf("Parse(%q) is kind %d, want %d", line, q.Kind, c.Kind)
			}
		}
	}
	if _, err := Parse("frobnicate w=0"); err == nil || !strings.Contains(err.Error(), "unknown operation") {
		t.Errorf("unknown operation: err = %v", err)
	}
}

// TestDocsListEveryClass keeps the hand-written copies of the class table —
// comments cannot be generated — from drifting: the syntax blocks of this
// package's and cmd/tara's package comments carry every class's help line,
// and the server package comment and README's endpoint table every route.
func TestDocsListEveryClass(t *testing.T) {
	// lines returns the file's lines with runs of blanks collapsed and any
	// comment marker dropped.
	lines := func(path string) []string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, l := range strings.Split(string(b), "\n") {
			out = append(out, strings.Join(strings.Fields(strings.TrimPrefix(l, "//")), " "))
		}
		return out
	}
	syntax := map[string][]string{"query.go": lines("query.go"), "cmd/tara/main.go": lines("../../cmd/tara/main.go")}
	serverDoc, readme := lines("../server/server.go"), lines("../../README.md")
	for _, c := range Classes {
		help := c.Name + " " + c.Usage
		for name, ls := range syntax {
			if !slices.Contains(ls, help) {
				t.Errorf("%s: package comment lacks the help line %q", name, help)
			}
		}
		if c.Route == "" {
			continue
		}
		if !slices.ContainsFunc(serverDoc, func(l string) bool { return strings.HasPrefix(l, c.Route+" ") }) {
			t.Errorf("server.go: package comment lacks route %s", c.Route)
		}
		row := "| `" + c.Route + "` | `" + c.Name + "` | `" + strings.ReplaceAll(c.Usage, "|", `\|`) + "` |"
		if !slices.ContainsFunc(readme, func(l string) bool { return strings.HasPrefix(l, row) }) {
			t.Errorf("README.md: endpoint table lacks the row %q", row)
		}
	}
}
