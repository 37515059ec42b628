package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"tara/internal/query"
)

// TestEveryClassRouteIsRegistered walks the query package's class table: a
// class that names a route must be served (any status but 404 — the request
// carries no parameters, so 400 is the expected answer), named after its
// route on /metrics with its operation name as the class label, and admitted
// under the QoS class the table declares.
func TestEveryClassRouteIsRegistered(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var interactive, analytic uint64
	for _, c := range query.Classes {
		if c.Route == "" {
			if code, _ := get(t, ts.URL, "/"+c.Name); code != http.StatusNotFound {
				t.Errorf("CLI-only class %s is served: status %d", c.Name, code)
			}
			continue
		}
		if code, body := get(t, ts.URL, c.Route); code == http.StatusNotFound {
			t.Errorf("class %s: route %s is not registered (%s)", c.Name, c.Route, body)
		}
		if c.Interactive {
			interactive++
		} else {
			analytic++
		}
		if st := s.metrics.endpoints[c.Route[1:]]; st == nil || st.class != c.Name {
			t.Errorf("class %s: /metrics endpoint %q has stats %+v", c.Name, c.Route[1:], st)
		}
	}
	if got := s.adm.counters[qosInteractive].requests.Load(); got != interactive {
		t.Errorf("interactive admissions = %d, want %d", got, interactive)
	}
	if got := s.adm.counters[qosAnalytic].requests.Load(); got != analytic {
		t.Errorf("analytic admissions = %d, want %d", got, analytic)
	}
}

// TestRuleIDAndPairErrorsHTTP: the decode-time rejections of an out-of-range
// rule id and a malformed threshold pair reach the client as typed 400s.
func TestRuleIDAndPairErrorsHTTP(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, tc := range []struct{ path, want string }{
		{"/drill?rule=4294967297&from=0&to=1", `query: rule "4294967297" must be an integer in [0, 4294967295]`},
		{"/drill?rule=-1&from=0&to=1", `query: rule "-1" must be an integer in [0, 4294967295]`},
		{"/diff?w=0&a=x,0.2&b=0.05,0.4", `query: bad a: strconv.ParseFloat: parsing "x": invalid syntax`},
		{"/diff?w=0&a=0.01,0.2&b=0.05,y", `query: bad b: strconv.ParseFloat: parsing "y": invalid syntax`},
	} {
		code, body := get(t, ts.URL, tc.path)
		var e errorBody
		if err := json.Unmarshal(body, &e); err != nil || code != http.StatusBadRequest || e.Error != tc.want {
			t.Errorf("GET %s: status %d, body %s; want 400 with error %q", tc.path, code, body, tc.want)
		}
	}
}

// TestRankByteCacheOnOff: /rank answers from the columnar engine on either
// configuration, so its bodies are byte-identical with the byte cache on and
// off, and agree with /topk row for row on the measures both serve.
func TestRankByteCacheOnOff(t *testing.T) {
	on := httptest.NewServer(newTestServer(t, Config{}).Handler())
	defer on.Close()
	off := httptest.NewServer(newTestServer(t, Config{ByteCacheBytes: -1}).Handler())
	defer off.Close()
	ranked := 0
	for _, by := range []string{"stability", "coverage", "volatility"} {
		for _, rg := range [][2]int{{0, 3}, {1, 2}, {2, 2}} {
			for _, k := range []int{0, 5, 10} {
				params := fmt.Sprintf("from=%d&to=%d&supp=0.02&conf=0.2&by=%s&k=%d", rg[0], rg[1], by, k)
				codeOn, bodyOn := get(t, on.URL, "/rank?"+params)
				codeOff, bodyOff := get(t, off.URL, "/rank?"+params)
				if codeOn != http.StatusOK || codeOff != http.StatusOK {
					t.Fatalf("GET /rank?%s: status %d / %d (%s)", params, codeOn, codeOff, bodyOn)
				}
				if !bytes.Equal(bodyOn, bodyOff) {
					t.Fatalf("GET /rank?%s: bodies differ with the byte cache on and off:\n%s\n%s", params, bodyOn, bodyOff)
				}
				if k == 0 {
					continue // /topk has no "all rules" k
				}
				var rank query.RankResult
				var topk query.TopKResult
				_, bodyTopK := get(t, on.URL, "/topk?"+params)
				if err := json.Unmarshal(bodyOn, &rank); err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(bodyTopK, &topk); err != nil {
					t.Fatal(err)
				}
				if len(rank.Rules) != len(topk.Rules) {
					t.Fatalf("%s: /rank has %d rows, /topk %d", params, len(rank.Rules), len(topk.Rules))
				}
				for i, r := range rank.Rules {
					if tk := topk.Rules[i]; r.ID != tk.ID || r.Coverage != tk.Coverage || r.Stability != tk.Stability || r.StdDev != tk.StdDev {
						t.Fatalf("%s row %d: /rank %+v, /topk %+v", params, i, r, tk)
					}
				}
				ranked += len(rank.Rules)
			}
		}
	}
	if ranked == 0 {
		t.Fatal("no draw ranked any rule")
	}
}
