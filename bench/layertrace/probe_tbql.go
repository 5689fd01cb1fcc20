package main

import (
	"repro/internal/tbql"
)

// tbqlClasses are the classes whose parse and analysis are reported: one
// eight-pattern text and one single-pattern text.
var tbqlClasses = []string{"leak8", "scan"}

func init() {
	const moves = "hunt_round_p50_ms on hunt_scan_cold; not hunt_repeat, where the query cache answers"
	l := layer{name: "tbql"}
	for _, class := range tbqlClasses {
		l.defs = append(l.defs,
			def("tbql.parse_us."+class, "us", "lower", moves),
			def("tbql.analyze_us."+class, "us", "lower", moves))
	}
	l.finish = func(x *run) {
		for _, class := range tbqlClasses {
			x.set("tbql.parse_us."+class, median(x.tr.durs("tbql.parse", "hunt", class))/1e3)
			x.set("tbql.analyze_us."+class, median(x.tr.durs("tbql.analyze", "hunt", class))/1e3)
		}
	}
	register(l)
}

// parseAnalyze turns a TBQL text into an analyzed query, one span each.
func (x *run) parseAnalyze(text string, parent, op int) (*tbql.Query, error) {
	id := x.tr.begin("tbql.parse", parent, op)
	q, err := tbql.ParseOnly(text)
	x.tr.end(id)
	if err != nil {
		return nil, err
	}
	id = x.tr.begin("tbql.analyze", parent, op)
	err = tbql.Analyze(q)
	x.tr.end(id)
	return q, err
}
