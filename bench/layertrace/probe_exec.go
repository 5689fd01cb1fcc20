package main

import (
	"context"

	"repro"
	"repro/bench/corpus"
	"repro/internal/obs"
	"repro/internal/tbql"
)

// huntCount is what one measured hunt counted.
type huntCount struct {
	rows, fetched, candidates, shardFetches, planHits, planMisses int
	mallocs, bytes                                                uint64
}

// huntCounts holds the counts of every measured hunt, by class, in the
// order the hunts ran (the order of their spans).
var huntCounts = map[string][]huntCount{}

// spanNames maps the engine's span names onto layer names; a span the
// map does not know is a per-shard data query, named after its pattern.
var spanNames = map[string]string{
	"analyze":       "tbql.analyze",
	"snapshot":      "snapshot.capture",
	"cost_optimize": "exec.optimize",
	"estimate":      "exec.estimate",
	"compile":       "exec.compile",
	"fetch":         "exec.fetch",
	"wave":          "exec.wave",
	"first_row":     "exec.first_row",
}

// importTrace copies the spans the engine recorded into the run's trace.
// No span is added to the program: the trace is an argument the facade
// already takes. base is the run's clock when the engine's trace began;
// root spans hang under parent, except the first row, which the drain
// loop caused.
func (x *run) importTrace(ot *obs.Trace, base int64, parent, drain, op int, class string) {
	spans := ot.Spans()
	ids := make([]int, len(spans))
	for i, s := range spans {
		if s.Dur < 0 {
			continue
		}
		name, known := spanNames[s.Name]
		if !known {
			name = "relstore.query"
			if class == "path" {
				name = "graphstore.query"
			}
		}
		p := parent
		switch {
		case s.Parent >= 0:
			p = ids[s.Parent]
		case s.Name == "first_row" && drain >= 0:
			p = drain
		}
		ids[i] = x.tr.add(name, p, op, base+int64(s.Start), base+int64(s.Start+s.Dur))
	}
}

// explain has the engine plan a query without running it; its trace is
// the only place the compile step has a span of its own.
func (x *run) explain(sys *threatraptor.System, q *tbql.Query, class string) error {
	op := x.tr.op("explain", class)
	id := x.tr.begin("exec.explain", -1, op)
	base := x.tr.now()
	ot := obs.NewTrace()
	_, err := sys.ExplainTraceCtx(context.Background(), q, ot)
	x.tr.end(id)
	x.importTrace(ot, base, id, -1, op, class)
	return err
}

var (
	execStageClasses = []string{"leak8", "path", "scan"} // one warm chain, the graph class, one cold scan
	execWorkClasses  = []string{"leak8", "join"}         // the two classes that join
	allClasses       = func() []string {
		var names []string
		for _, class := range corpus.Classes {
			names = append(names, string(class))
		}
		return names
	}()
)

// mix is the classes a workload's own traffic holds, for the plan-cache
// ratio: warm fixed texts, cold unique texts, or both.
func mix(workload string) []string {
	switch workload {
	case "hunt_repeat":
		return allClasses[:5]
	case "hunt_scan_cold":
		return allClasses[5:]
	}
	return allClasses
}

func init() {
	const warm = "hunt_round_p50_ms and hunts_per_s on hunt_repeat"
	const cold = "hunt_round_p50_ms on hunt_scan_cold"
	movesOf := func(class string) string {
		if class == "scan" || class == "join" {
			return cold
		}
		return warm
	}
	l := layer{name: "exec"}
	for _, class := range execStageClasses {
		l.defs = append(l.defs,
			def("exec.optimize_us."+class, "us", "lower", movesOf(class)),
			def("exec.compile_us."+class, "us", "lower", cold+" (on hunt_repeat the plan cache answers)"),
			def("exec.first_row_us."+class, "us", "lower", movesOf(class)),
			def("exec.allocs_per_hunt."+class, "allocs", "lower", movesOf(class)+"; service.hunt_round_p95_ms on soc_mixed through the collector"),
			def("exec.bytes_per_hunt."+class, "B", "lower", movesOf(class)+"; service.hunt_round_p95_ms on soc_mixed through the collector"))
	}
	for _, class := range allClasses {
		l.defs = append(l.defs, def("exec.fetch_us."+class, "us", "lower", movesOf(class)))
	}
	for _, class := range []string{"scan", "join"} {
		l.defs = append(l.defs, def("exec.drain_us_per_row."+class, "us/row", "lower", "rows_per_s and page_p50_ms on hunt_scan_cold"))
	}
	for _, class := range execWorkClasses {
		l.defs = append(l.defs,
			def("exec.rows_fetched_per_row."+class, "ratio", "lower", movesOf(class)+" (exact count: work per useful row)"),
			def("exec.join_candidates_per_row."+class, "ratio", "lower", movesOf(class)+" (exact count: work per useful row)"))
	}
	for _, class := range []string{"point", "hostpin"} {
		l.defs = append(l.defs, def("exec.shard_fetches_per_hunt."+class, "count", "lower", warm+" (exact count: hostpin is pruned to one shard)"))
	}
	l.defs = append(l.defs, def("exec.plan_cache_hit_ratio", "ratio", "higher", "1 on hunt_repeat and 0 on hunt_scan_cold by construction; anything else means the workload does not stress what it claims"))

	l.finish = func(x *run) {
		us := func(name, kind, class string) float64 { return median(x.tr.durs(name, kind, class)) / 1e3 }
		counts := func(class string, f func(huntCount) float64) []float64 {
			var out []float64
			for _, c := range huntCounts[class] {
				out = append(out, f(c))
			}
			return out
		}
		for _, class := range execStageClasses {
			x.set("exec.optimize_us."+class, us("exec.optimize", "hunt", class))
			x.set("exec.compile_us."+class, us("exec.compile", "explain", class))
			x.set("exec.first_row_us."+class, us("exec.first_row", "hunt", class))
			x.set("exec.allocs_per_hunt."+class, median(counts(class, func(c huntCount) float64 { return float64(c.mallocs) })))
			x.set("exec.bytes_per_hunt."+class, median(counts(class, func(c huntCount) float64 { return float64(c.bytes) })))
		}
		for _, class := range allClasses {
			x.set("exec.fetch_us."+class, us("exec.fetch", "hunt", class))
		}
		for _, class := range []string{"scan", "join"} {
			drains := x.tr.durs("exec.drain", "hunt", class)
			var perRow []float64
			for i, c := range huntCounts[class] {
				if c.rows > 0 {
					perRow = append(perRow, drains[i]/1e3/float64(c.rows))
				}
			}
			x.set("exec.drain_us_per_row."+class, median(perRow))
		}
		for _, class := range execWorkClasses {
			rows := sum(counts(class, func(c huntCount) float64 { return float64(c.rows) }))
			x.set("exec.rows_fetched_per_row."+class, sum(counts(class, func(c huntCount) float64 { return float64(c.fetched) }))/rows)
			x.set("exec.join_candidates_per_row."+class, sum(counts(class, func(c huntCount) float64 { return float64(c.candidates) }))/rows)
		}
		for _, class := range []string{"point", "hostpin"} {
			x.set("exec.shard_fetches_per_hunt."+class, median(counts(class, func(c huntCount) float64 { return float64(c.shardFetches) })))
		}
		hits, misses := 0.0, 0.0
		for _, class := range mix(x.workload) {
			hits += sum(counts(class, func(c huntCount) float64 { return float64(c.planHits) }))
			misses += sum(counts(class, func(c huntCount) float64 { return float64(c.planMisses) }))
		}
		x.set("exec.plan_cache_hit_ratio", hits/(hits+misses))
	}
	register(l)
}
