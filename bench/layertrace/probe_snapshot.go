package main

// The snapshot layer has no call of its own here: the engine captures the
// epoch snapshot inside the hunt and reports it as a span of the trace
// the hunt probe passes in (see importTrace).
var snapshotClasses = []string{"leak8", "scan"}

func init() {
	const moves = "service.hunt_round_p95_ms on soc_mixed, where snapshots are pinned across commits"
	l := layer{name: "snapshot"}
	for _, class := range snapshotClasses {
		l.defs = append(l.defs, def("snapshot.capture_us."+class, "us", "lower", moves))
	}
	l.finish = func(x *run) {
		for _, class := range snapshotClasses {
			x.set("snapshot.capture_us."+class, median(x.tr.durs("snapshot.capture", "hunt", class))/1e3)
		}
	}
	register(l)
}
