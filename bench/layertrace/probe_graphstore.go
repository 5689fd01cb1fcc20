package main

import (
	"repro/internal/audit"
	"repro/internal/graphstore"
)

var graphHeapPerEvent float64

func init() {
	graph := graphstore.NewSharded(2)
	const moves = "ingest_events_per_s and rss_peak_mb on ingest_stream"
	register(layer{
		name: "graphstore",
		defs: []Def{
			def("graphstore.load_edges_ns_per_event", "ns/event", "lower", moves),
			def("graphstore.load_nodes_ns_per_entity", "ns/entity", "lower", moves),
			def("graphstore.heap_bytes_per_event", "B/event", "lower", "rss_peak_mb on every workload"),
			def("graphstore.fetch_us.path", "us", "lower", fetchMoves("path")),
		},
		stages: []stage{
			{70, "graphstore.load_nodes", func(x *run, b *batch) error { return graph.LoadNodes(b.staged.NewEntities) }},
			{90, "graphstore.load_edges", func(x *run, b *batch) error { return graph.LoadEdges(b.staged.Events) }},
		},
		finish: func(x *run) {
			x.set("graphstore.load_edges_ns_per_event", sum(x.tr.durs("graphstore.load_edges", "ingest", ""))/float64(eventsStaged))
			x.set("graphstore.load_nodes_ns_per_entity", sum(x.tr.durs("graphstore.load_nodes", "ingest", ""))/float64(entitiesFound))
			x.set("graphstore.heap_bytes_per_event", graphHeapPerEvent)
			x.set("graphstore.fetch_us.path", median(x.tr.perOp("hunt", "path", func(s span) bool { return s.Name == "graphstore.query" }))/1e3)
		},
		afterIngest: func(x *run) error {
			graph = nil
			return graphstoreHeap()
		},
	})
}

func graphstoreHeap() error {
	var err error
	graphHeapPerEvent, err = heapGrowth(func(entities []*audit.Entity, events []*audit.Event) (any, error) {
		g := graphstore.NewSharded(2)
		if err := g.LoadNodes(entities); err != nil {
			return nil, err
		}
		return g, g.LoadEdges(events)
	})
	return err
}
