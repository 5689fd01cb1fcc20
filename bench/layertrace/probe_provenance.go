package main

import "repro/internal/provenance"

var cprIn, cprOut int

func init() {
	// The daemon runs with CPR off, so this is the cost if it were on; the
	// reduced events are counted and dropped.
	const moves = "none today; disk_bytes_per_event and rss_peak_mb on ingest_stream if CPR becomes the default"
	register(layer{
		name: "provenance",
		defs: []Def{
			def("provenance.reduce_ns_per_event", "ns/event", "lower", moves),
			def("provenance.reduction_factor", "ratio", "higher", moves+" (exact count)"),
		},
		// Reduction runs on its own pass over what the write path staged,
		// batch by batch: run between the other stages it would evict
		// their cache lines and charge them its garbage.
		afterIngest: func(x *run) error {
			events, from := parser.Events(), 0
			for i, after := range stagedAfter {
				op := x.tr.op("cpr", part(x, i))
				id := x.tr.begin("provenance.reduce", -1, op)
				_, st := provenance.Reduce(events[from:after[0]])
				x.tr.end(id)
				cprIn += st.In
				cprOut += st.Out
				from = after[0]
			}
			return nil
		},
		finish: func(x *run) {
			x.set("provenance.reduce_ns_per_event", sum(x.tr.durs("provenance.reduce", "cpr", ""))/float64(cprIn))
			x.set("provenance.reduction_factor", float64(cprIn)/float64(cprOut))
		},
	})
}
