package main

import (
	"runtime"

	"repro/internal/audit"
	"repro/internal/relstore"
)

// heapPrefix bounds how many events the heap probes load: enough for a
// steady bytes-per-event figure, small enough to hold twice.
const heapPrefix = 120000

var relHeapPerEvent float64

func init() {
	rel, err := relstore.NewSharded(2)
	if err != nil {
		panic(err) // two shards is a valid count; only a bug gets here
	}
	const moves = "ingest_events_per_s and rss_peak_mb on ingest_stream"
	l := layer{
		name: "relstore",
		defs: []Def{
			def("relstore.load_events_ns_per_event", "ns/event", "lower", moves),
			def("relstore.load_entities_ns_per_entity", "ns/entity", "lower", moves),
			def("relstore.heap_bytes_per_event", "B/event", "lower", "rss_peak_mb on every workload"),
		},
		stages: []stage{
			{60, "relstore.load_entities", func(x *run, b *batch) error { return rel.LoadEntities(b.staged.NewEntities) }},
			{80, "relstore.load_events", func(x *run, b *batch) error { return rel.LoadEvents(b.staged.Events) }},
		},
	}
	// The store's busy time per hunt: the sum of its per-shard data-query
	// spans, which run in parallel, so it can exceed exec.fetch_us.
	for _, class := range eventClasses {
		l.defs = append(l.defs, def("relstore.fetch_us."+class, "us", "lower", fetchMoves(class)))
	}
	l.finish = func(x *run) {
		x.set("relstore.load_events_ns_per_event", sum(x.tr.durs("relstore.load_events", "ingest", ""))/float64(eventsStaged))
		x.set("relstore.load_entities_ns_per_entity", sum(x.tr.durs("relstore.load_entities", "ingest", ""))/float64(entitiesFound))
		x.set("relstore.heap_bytes_per_event", relHeapPerEvent)
		for _, class := range eventClasses {
			x.set("relstore.fetch_us."+class, median(x.tr.perOp("hunt", class, func(s span) bool { return s.Name == "relstore.query" }))/1e3)
		}
	}
	l.afterIngest = func(x *run) error {
		rel = nil
		return relstoreHeap()
	}
	register(l)
}

// eventClasses are the hunt classes whose patterns the relational store
// answers; the path class goes to the graph store.
var eventClasses = []string{"leak8", "crack8", "point", "hostpin", "scan", "join"}

func fetchMoves(class string) string {
	switch class {
	case "scan", "join":
		return "hunt_round_p50_ms on hunt_scan_cold"
	case "path":
		return "the path class's share of hunt_round_p50_ms on hunt_repeat"
	}
	return "hunt_round_p50_ms on hunt_repeat"
}

// heapGrowth is the live heap a load adds, per event, over the longest
// run of leading batches that stays under heapPrefix events. Entities
// are interned in event order, so those batches' entities are a prefix
// of the parser's too.
func heapGrowth(load func(entities []*audit.Entity, events []*audit.Event) (keep any, err error)) (float64, error) {
	upTo := stagedAfter[0]
	for _, after := range stagedAfter {
		if after[0] > heapPrefix {
			break
		}
		upTo = after
	}
	events, entities := parser.Events()[:upTo[0]], parser.Entities()[:upTo[1]]
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	keep, err := load(entities, events)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(keep)
	return (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / float64(len(events)), err
}

func relstoreHeap() error {
	var err error
	relHeapPerEvent, err = heapGrowth(func(entities []*audit.Entity, events []*audit.Event) (any, error) {
		s, err := relstore.NewSharded(2)
		if err != nil {
			return nil, err
		}
		if err := s.LoadEntities(entities); err != nil {
			return nil, err
		}
		return s, s.LoadEvents(events)
	})
	return err
}
