package main

// classMetrics fills the client-side figures of an end-to-end pass that the
// per-layer list carries: each class's median latency and its share of the
// time the client waited, and the tail of all of them pooled. used99 is the
// quantile query_p99_ms really reports.
func classMetrics(m map[string]float64, o *outcome) (used99 float64) {
	byClass := map[string][]float64{}
	var pooled []float64
	var all, bytes float64
	n := 0
	for _, rec := range o.records {
		if !rec.ok {
			continue
		}
		byClass[rec.class] = append(byClass[rec.class], rec.ms)
		pooled = append(pooled, rec.ms)
		all += rec.ms
		bytes += float64(rec.size)
		n++
	}
	m["query_p99_ms"], used99 = tailPercentile(sortedCopy(pooled), 0.99)
	for c, ms := range byClass {
		m["server.class."+c+".p50_ms"] = median(ms)
		m["server.class."+c+".time_share"] = ratio(sum(ms), all)
	}
	m["server.body_bytes_mean"] = ratio(bytes, float64(n))
	m["server.bytecache_hit_ratio"] = o.byteCacheHitRatio
	m["server.shed_count"] = o.shed
	return used99
}

// servingLayers turns a serving workload's trace into its per-layer metrics.
// shares is each layer's part of the time the transport rung took, for the
// report; it sums to 1.
func servingLayers(m map[string]float64, o *outcome, lr *ladderResult) (shares map[string]float64) {
	per := attribute(lr)[lr.warm:]
	pick := func(f func(perRequest) (float64, bool)) []float64 {
		var out []float64
		for _, p := range per {
			if v, ok := f(p); ok {
				out = append(out, v)
			}
		}
		return out
	}
	all := func(f func(perRequest) float64) []float64 {
		return pick(func(p perRequest) (float64, bool) { return f(p), true })
	}
	nonzero := func(f func(perRequest) float64) []float64 {
		return pick(func(p perRequest) (float64, bool) { v := f(p); return v, v != 0 })
	}
	us := func(ns []float64) float64 { return median(ns) / 1e3 }

	handler := sum(all(func(p perRequest) float64 { return p.handler }))
	total := sum(all(func(p perRequest) float64 { return p.total }))
	m["server.self_us_p50"] = us(all(func(p perRequest) float64 { return p.server }))
	m["server.self_share"] = ratio(sum(all(func(p perRequest) float64 { return p.server })), handler)
	m["server.transport_us_p50"] = us(all(func(p perRequest) float64 { return p.transport }))

	reached := func(p perRequest) bool { return !p.serverHit }
	m["query.parse_us_p50"] = us(pick(func(p perRequest) (float64, bool) { return p.parse, reached(p) }))
	m["query.answer_self_us_p50"] = us(pick(func(p perRequest) (float64, bool) { return p.answer, reached(p) }))
	m["query.encode_us_p50"] = us(pick(func(p perRequest) (float64, bool) { return p.enc, reached(p) }))
	m["query.encode_ns_per_byte"] = ratio(sum(all(func(p perRequest) float64 { return p.enc })), sum(all(func(p perRequest) float64 { return p.encBytes })))
	m["tara.self_us_p50"] = us(pick(func(p perRequest) (float64, bool) { return p.tara, reached(p) }))
	m["tara.querycache_hit_ratio"] = ratio(lr.cacheHits, lr.cacheHits+lr.cacheMiss)
	m["tara.open_ms"] = median(lr.openMs)
	m["kb.file_bytes"] = float64(lr.kbBytes)
	m["eps.lookup_us_p50"] = us(nonzero(func(p perRequest) float64 { return p.eps }))
	m["archive.decode_us_p50"] = us(nonzero(func(p perRequest) float64 { return p.archive }))

	// Ratios of time to work come straight from the spans: every call counts,
	// whether or not a cache would have skipped it on the rungs above.
	var (
		epsNs, epsRules, epsLookups float64
		archNs, archEntries         float64
		matNs, matRows              float64
		scans                       []float64
		pruned, candidates          float64
	)
	for _, s := range lr.trace.spans {
		if s.Request < lr.warm {
			continue
		}
		switch {
		case s.Layer == "eps" && s.Op != "Count" && s.Op != "Region":
			epsNs, epsRules, epsLookups = epsNs+s.dur(), epsRules+float64(s.N), epsLookups+1
		case s.Layer == "archive":
			archNs, archEntries = archNs+s.dur(), archEntries+float64(s.N)
		case s.Layer == "traj" && s.Op == "Build":
			m["traj.snapshot_build_ms"] = s.dur() / 1e6
			m["traj.snapshot_bytes"] = float64(s.N)
		case s.Layer == "traj":
			scans = append(scans, s.dur())
			if s.Op == "Similar" {
				pruned += float64(s.N)
				candidates++
			}
		}
	}
	m["eps.ns_per_rule"] = ratio(epsNs, epsRules)
	m["eps.rules_per_lookup"] = ratio(epsRules, epsLookups)
	m["archive.ns_per_entry"] = ratio(archNs, archEntries)
	m["traj.scan_us_p50"] = us(scans)
	m["traj.similar_pruned_ratio"] = ratio(pruned, candidates*float64(lr.snapshotRules))

	// Rows the archive decoded against rows the answer carried: the waste of
	// materializing a whole answer and then cutting a page out of it.
	var rowsReturned float64
	for i, rq := range lr.requests {
		if i < lr.warm {
			continue
		}
		switch rq.class {
		case "trajectory", "rollup", "drill", "rank":
			rowsReturned += float64(lr.rows[i])
		case "mine", "content":
			if p := per[i-lr.warm]; !p.serverHit && !p.taraHit {
				matNs, matRows = matNs+p.tara, matRows+p.taraRows
			}
		}
	}
	m["archive.entries_per_row_returned"] = ratio(archEntries, rowsReturned)
	m["tara.materialize_ns_per_rule"] = ratio(matNs, matRows)

	// The layers' self times and transport add up to the top rung's span by
	// construction. What is left unexplained is how far that span, taken with
	// tracing on against one daemon, falls short of the latency the untraced
	// pass saw for the same request against another. It is the median over
	// the requests, not a ratio of sums: one stall of the machine in either
	// pass would otherwise decide it.
	var short []float64
	for i := range per {
		if i < len(o.records) && o.records[i].ok {
			short = append(short, 1-ratio(per[i].total, o.records[i].ms*1e6))
		}
	}
	m["e2e.unattributed_share"] = median(short)

	shares = map[string]float64{}
	for _, p := range per {
		shares["eps"] += p.eps
		shares["archive"] += p.archive
		shares["traj"] += p.traj
		shares["tara"] += p.tara
		shares["query.parse"] += p.parse
		shares["query.answer"] += p.answer
		shares["query.encode"] += p.enc
		shares["server"] += p.server
		shares["transport"] += p.transport
	}
	for k := range shares {
		shares[k] = ratio(shares[k], total)
	}
	return shares
}

// ingestLayers turns the ingest trace into its per-layer metrics.
func ingestLayers(m map[string]float64, t *trace) {
	type agg struct{ ns, n, calls float64 }
	by := map[string]*agg{}
	for _, s := range t.spans {
		k := s.Layer + "." + s.Op
		if by[k] == nil {
			by[k] = &agg{}
		}
		by[k].ns += s.dur()
		by[k].n += float64(s.N)
		by[k].calls++
	}
	get := func(k string) agg {
		if a := by[k]; a != nil {
			return *a
		}
		return agg{}
	}
	perWindowMs := func(k string) float64 { a := get(k); return ratio(a.ns, a.calls) / 1e6 }
	ms := func(k string) float64 { return get(k).ns / 1e6 }
	windows := get("mining.Mine").calls

	read, part := get("txdb.Read"), get("txdb.PartitionByCount")
	m["txdb.read_ms"] = read.ns / 1e6
	m["txdb.partition_ms"] = part.ns / 1e6
	m["txdb.ns_per_input_byte"] = ratio(read.ns, read.n)
	m["mining.mine_ms_per_window"] = perWindowMs("mining.Mine")
	m["mining.ns_per_tx"] = ratio(get("mining.Mine").ns, part.n)
	m["mining.itemsets_per_window"] = ratio(get("mining.Mine").n, windows)
	m["rules.generate_ms_per_window"] = perWindowMs("rules.Generate")
	m["rules.intern_ms_per_window"] = perWindowMs("rules.Dict.Add")
	m["rules.rules_per_window"] = ratio(get("rules.Generate").n, windows)
	m["eps.build_slice_ms_per_window"] = perWindowMs("eps.BuildSlice")
	m["eps.locations_per_window"] = ratio(get("eps.BuildSlice").n, windows)
	m["eps.mapped_bytes_per_location"] = ratio(get("eps.AppendMapped").n, get("eps.BuildSlice").n)
	m["archive.append_ms_per_window"] = perWindowMs("archive.AppendWindow")
	m["archive.encode_mapped_ms"] = ms("archive.AppendMapped")
	m["archive.open_mapped_ms"] = ms("archive.OpenMapped")
	m["archive.bytes_per_entry"] = ratio(get("archive.AppendMapped").n, get("archive.AppendWindow").n)

	build := get("tara.AppendWindows")
	stages := get("mining.Mine").ns + get("rules.Generate").ns + get("rules.Dict.Add").ns +
		get("eps.BuildSlice").ns + get("archive.AppendWindow").ns
	m["tara.build_wall_ms"] = build.ns / 1e6
	// build.n carries GOMAXPROCS: the stages' summed time over the wall time
	// the processors had.
	m["tara.build_parallel_efficiency"] = ratio(stages, build.ns*build.n)
	m["tara.save_ms"] = ms("tara.SaveMapped")
	m["tara.open_ms"] = ms("tara.Open")
	m["kb.write_ms"] = ms("kb.WriteTo")
	m["kb.open_us"] = get("kb.Open").ns / 1e3
	m["kb.file_bytes"] = get("tara.SaveMapped").n
}
