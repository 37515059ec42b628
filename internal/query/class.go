package query

import "slices"

// Class declares one query class: the one place its operation name, HTTP
// route, admission class and help text are written down. The parser resolves
// operation names from it, the daemon registers its routes from it and
// cmd/tara prints its help from it. A new class is one row here, one decode
// arm in build, one answer arm in AnswerTraced and one render arm in render.
type Class struct {
	Kind Kind
	// Name is the operation name of the textual syntax; it also labels the
	// class on /metrics and /debug/slow.
	Name string
	// Aliases are alternative operation names the parser accepts.
	Aliases []string
	// Route is the HTTP path tarad serves the class under; empty for a
	// CLI-only class.
	Route string
	// Interactive marks the cheap single-window point lookups, which the
	// daemon's admission layer keeps schedulable while the multi-window scans
	// are shed.
	Interactive bool
	// Usage is the parameter synopsis shown by help: optional parameters in
	// brackets, alternatives separated by '|'.
	Usage string
}

// Classes is the table of query classes, indexed by Kind.
var Classes = [...]Class{
	Mine:       {Mine, "mine", nil, "/mine", true, "w=0 supp=0.01 conf=0.2 [lift=1.5]"},
	Count:      {Count, "count", nil, "/count", true, "w=0 supp=0.01 conf=0.2"},
	Trajectory: {Trajectory, "traj", []string{"trajectory"}, "/trajectory", false, "w=3 supp=0.01 conf=0.2 in=0,1,2"},
	Compare:    {Compare, "compare", nil, "/diff", false, "w=0,1,2,3 a=0.01,0.2 b=0.05,0.3"},
	Recommend:  {Recommend, "recommend", []string{"region"}, "/recommend", true, "w=0 supp=0.01 conf=0.2 [lift=1.5]"},
	RollUp:     {RollUp, "rollup", nil, "/rollup", false, "from=0 to=3 supp=0.01 conf=0.2"},
	DrillDown:  {DrillDown, "drill", []string{"drilldown"}, "/drill", true, "rule=12 from=0 to=3"},
	About:      {About, "about", nil, "/content", false, "w=0 supp=0.01 conf=0.2 items=milk,bread"},
	Rank:       {Rank, "rank", nil, "/rank", false, "from=0 to=3 supp=0.01 conf=0.2 [by=stability|coverage|volatility] [k=10]"},
	Periodic:   {Periodic, "periodic", nil, "/periodic", false, "from=0 to=8 supp=0.01 conf=0.2 period=7 [k=10]"},
	Plot:       {Plot, "plot", []string{"panorama"}, "/plot", false, "w=0 [supp=0.01 conf=0.2]"},
	Export:     {Export, "export", nil, "", false, "w=0 supp=0.01 conf=0.2 file=rules.csv [format=csv|json]"},
	TopK:       {TopK, "topk", nil, "/topk", false, "from=0 to=3 supp=0.01 conf=0.2 [by=stability|drift|volatility|coverage] [k=10]"},
	Similar:    {Similar, "similar", nil, "/similar", false, "from=0 to=3 ref=0.1,0.2,0.15,0.2 [metric=euclid|max] [supp=0 conf=0] [k=10]"},
	Emerging:   {Emerging, "emerging", nil, "/emerging", false, "from=0 supp=0.01 conf=0.2 [to=5]"},
}

// classByName resolves an operation name or alias.
func classByName(op string) (Class, bool) {
	for _, c := range Classes {
		if c.Name == op || slices.Contains(c.Aliases, op) {
			return c, true
		}
	}
	return Class{}, false
}
