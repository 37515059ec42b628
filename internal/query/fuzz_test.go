package query

import (
	"encoding/json"
	"testing"
)

// FuzzParse checks the query parser never panics and that parsed queries
// carry the requested kind.
func FuzzParse(f *testing.F) {
	f.Add("mine w=0 supp=0.01 conf=0.2")
	f.Add("compare w=0,1 a=0.1,0.2 b=0.3,0.4")
	f.Add("rank from=0 to=3 supp=1e-3 conf=.2 by=coverage k=5")
	f.Add("mine w= supp=NaN conf=+Inf")
	f.Add("about w=0 supp=0 conf=0 items=,")
	f.Fuzz(func(t *testing.T, line string) {
		_, _ = Parse(line)
	})
}

// FuzzAnswerEncodes checks every answer the daemon could be asked for
// survives json.Marshal: a float encoding/json refuses (±Inf, NaN) would
// reach the client as a 200 with a truncated body. The seeds are the golden
// lines, which include a lift filter above every rule.
func FuzzAnswerEncodes(f *testing.F) {
	for _, line := range goldenLines {
		f.Add(line)
	}
	fw := buildFramework(f)
	f.Fuzz(func(t *testing.T, line string) {
		q, err := Parse(line)
		if err != nil || q.Kind == Export {
			return
		}
		res, err := Answer(fw, q)
		if err != nil {
			return
		}
		if _, err := json.Marshal(res); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	})
}
