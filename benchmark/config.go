package main

// The four workloads. Each run of a workload goes through the whole life of a
// knowledge base — ingest (`tara` builds and saves it), restart (`tarad` maps
// it) and queries — and differs in which part its measured interval repeats.
const (
	wFirstTouch = "explore-firsttouch"
	wRevisit    = "explore-revisit"
	wEvolve     = "evolve"
	wIngest     = "ingest"
)

var workloadNames = []string{wFirstTouch, wRevisit, wEvolve, wIngest}

// classes are the thirteen served query classes, by the name the per-class
// metrics carry. /plot is a text panorama, not a paper query, and is left out.
var classes = []string{
	"mine", "count", "recommend", "diff", "content",
	"trajectory", "rollup", "drill", "rank", "periodic", "topk", "similar", "emerging",
}

// endpoint maps a class to its HTTP route and to the operation name
// query.FromValues decodes it under.
var endpoint = map[string]struct{ path, op string }{
	"mine":       {"/mine", "mine"},
	"count":      {"/count", "count"},
	"recommend":  {"/recommend", "recommend"},
	"diff":       {"/diff", "compare"},
	"content":    {"/content", "about"},
	"trajectory": {"/trajectory", "traj"},
	"rollup":     {"/rollup", "rollup"},
	"drill":      {"/drill", "drill"},
	"rank":       {"/rank", "rank"},
	"periodic":   {"/periodic", "periodic"},
	"topk":       {"/topk", "topk"},
	"similar":    {"/similar", "similar"},
	"emerging":   {"/emerging", "emerging"},
}

// share is one entry of a request mix: variant picks the shape within the
// class (paged or not), share its fraction of the requests.
type share struct {
	class   string
	variant string
	share   float64
}

// The request mixes, frozen after one calibration pass so that no class other
// than count, recommend and drill holds under 5 % of its workload's
// client-observed time (README, "Freezing the mix"). Shares are by request
// count and sum to 1.
var (
	exploreMix = []share{
		{"mine", "all", 0.15},
		{"mine", "page", 0.10},
		{"count", "", 0.20},
		{"recommend", "", 0.15},
		{"diff", "", 0.15},
		{"content", "page", 0.25},
	}
	evolveMix = []share{
		{"trajectory", "all", 0.06},
		{"trajectory", "page", 0.14},
		{"rollup", "page", 0.06},
		{"drill", "", 0.14},
		{"rank", "", 0.06},
		{"periodic", "", 0.08},
		{"topk", "", 0.16},
		{"similar", "", 0.14},
		{"emerging", "page", 0.16},
	}
)

// sizes fixes how much data and work one run handles. full is what
// BENCHMARK.json measures; the tests run a smaller copy of the same pipeline.
type sizes struct {
	// The dataset: gen.Retail with these parameters, written as TSV.
	tx, windows, items, avgLen int
	drift                      float64
	// Generation thresholds handed to `tara`; request thresholds are drawn
	// uniformly from [genSupp, suppHi] x [genConf, confHi].
	genSupp, genConf, suppHi, confHi float64
	maxLen                           int
	// setups is how many times a run sets up; setup_s and the ingest and
	// restart metrics of a serving workload are medians over them.
	setups int
	// pool is the explore-revisit URL pool: it fits both daemon caches.
	pool int
	// ladder is how many requests of each serving workload the traced pass
	// replays per rung (explore-revisit replays its warm-up pass first).
	ladder map[string]int
	// restarts per ingest cycle, and /count requests sent after each one.
	restarts, smoke int
}

var full = sizes{
	tx: 60000, windows: 12, items: 2000, avgLen: 10, drift: 0.02,
	genSupp: 0.005, genConf: 0.1, suppHi: 0.025, confHi: 0.7, maxLen: 4,
	setups:   3,
	pool:     256,
	ladder:   map[string]int{wFirstTouch: 1500, wRevisit: 10000, wEvolve: 400},
	restarts: 5, smoke: 200,
}

// endToEnd lists the end-to-end metrics with their units, in report order.
// Every workload reports every one: a serving workload takes the ingest and
// restart metrics from its set-ups, ingest takes the query metrics from the
// /count requests that follow each restart.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_per_s", "1/s"},
	{"query_p50_ms", "ms"},
	{"cpu_us_per_query", "us"},
	{"peak_rss_mb", "MB"},
	{"ingest_tx_per_s", "1/s"},
	{"ingest_cpu_s", "s"},
	{"restart_ms", "ms"},
	{"kb_bytes_per_input_byte", "ratio"},
}

type metricDef struct{ name, unit string }

// perLayer lists the per-layer metrics with their units. A metric of a layer
// the workload does not drive reads 0.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"server.self_us_p50", "us"},
		{"server.self_share", "ratio"},
		{"server.bytecache_hit_ratio", "ratio"},
		{"server.transport_us_p50", "us"},
		{"server.body_bytes_mean", "B"},
		{"server.shed_count", "count"},
		// A diagnostic, not a layer's metric: the tail of the untraced
		// interval. Two sets of runs of one commit disagreed on it by more
		// than any bound allowed (README, A/A), so it carries none.
		{"query_p99_ms", "ms"},
	}
	for _, c := range classes {
		m = append(m, metricDef{"server.class." + c + ".p50_ms", "ms"}, metricDef{"server.class." + c + ".time_share", "ratio"})
	}
	return append(m,
		metricDef{"query.parse_us_p50", "us"},
		metricDef{"query.answer_self_us_p50", "us"},
		metricDef{"query.encode_us_p50", "us"},
		metricDef{"query.encode_ns_per_byte", "ns/B"},
		metricDef{"tara.self_us_p50", "us"},
		metricDef{"tara.materialize_ns_per_rule", "ns"},
		metricDef{"tara.querycache_hit_ratio", "ratio"},
		metricDef{"tara.build_wall_ms", "ms"},
		metricDef{"tara.build_parallel_efficiency", "ratio"},
		metricDef{"tara.save_ms", "ms"},
		metricDef{"tara.open_ms", "ms"},
		metricDef{"eps.lookup_us_p50", "us"},
		metricDef{"eps.ns_per_rule", "ns"},
		metricDef{"eps.rules_per_lookup", "count"},
		metricDef{"eps.build_slice_ms_per_window", "ms"},
		metricDef{"eps.locations_per_window", "count"},
		metricDef{"eps.mapped_bytes_per_location", "B"},
		metricDef{"archive.decode_us_p50", "us"},
		metricDef{"archive.ns_per_entry", "ns"},
		metricDef{"archive.entries_per_row_returned", "ratio"},
		metricDef{"archive.append_ms_per_window", "ms"},
		metricDef{"archive.encode_mapped_ms", "ms"},
		metricDef{"archive.open_mapped_ms", "ms"},
		metricDef{"archive.bytes_per_entry", "B"},
		metricDef{"traj.snapshot_build_ms", "ms"},
		metricDef{"traj.snapshot_bytes", "B"},
		metricDef{"traj.scan_us_p50", "us"},
		metricDef{"traj.similar_pruned_ratio", "ratio"},
		metricDef{"mining.mine_ms_per_window", "ms"},
		metricDef{"mining.ns_per_tx", "ns"},
		metricDef{"mining.itemsets_per_window", "count"},
		metricDef{"rules.generate_ms_per_window", "ms"},
		metricDef{"rules.intern_ms_per_window", "ms"},
		metricDef{"rules.rules_per_window", "count"},
		metricDef{"txdb.read_ms", "ms"},
		metricDef{"txdb.partition_ms", "ms"},
		metricDef{"txdb.ns_per_input_byte", "ns"},
		metricDef{"kb.write_ms", "ms"},
		metricDef{"kb.open_us", "us"},
		metricDef{"kb.file_bytes", "B"},
		metricDef{"e2e.unattributed_share", "ratio"},
	)
}()
