package main

import (
	"repro/internal/extract"
	"repro/internal/synth"
)

func init() {
	// CTI text to TBQL runs in the CLI, not the daemon; the two are kept
	// so the paper's front half stays on the map.
	const moves = "no daemon metric: report text to TBQL runs in the threatraptor CLI"
	register(layer{
		name: "cti",
		defs: []Def{
			def("extract.report_ms", "ms", "lower", moves),
			def("synth.query_us", "us", "lower", moves),
		},
		finish: func(x *run) {
			x.set("extract.report_ms", median(x.tr.durs("extract.report", "cti", ""))/1e6)
			x.set("synth.query_us", median(x.tr.durs("synth.query", "cti", ""))/1e3)
		},
	})
}

// ctiProbe extracts a behavior graph from each of the two report texts
// and synthesizes its query.
func (x *run) ctiProbe() error {
	for i := 0; i < x.iters; i++ {
		for _, text := range []string{extract.Fig2Text, extract.PasswordCrackText} {
			op := x.tr.op("cti", "")
			id := x.tr.begin("extract.report", -1, op)
			g := extract.Extract(text)
			x.tr.end(id)
			id = x.tr.begin("synth.query", -1, op)
			q, _, err := synth.Synthesize(g, nil)
			x.tr.end(id)
			if err != nil {
				return err
			}
			x.check(len(q.Patterns) >= 6, "synthesis gave %d patterns from a report of at least 6 steps", len(q.Patterns))
		}
	}
	return nil
}
