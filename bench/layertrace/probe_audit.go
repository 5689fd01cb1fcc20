package main

import (
	"bytes"
	"runtime"

	"repro/internal/audit"
)

// batch carries one ingest batch through the stages of the write path.
type batch struct {
	body   []byte
	recs   []audit.Record
	staged *audit.StagedBatch
}

// The write path's shared state: the parser interns entities and hands
// every later stage its staged events.
var (
	parser        = audit.NewParser()
	parseMallocs  uint64 // over parseCounted re-parsed events
	parseCounted  int
	eventsStaged  int
	entitiesFound int
	// stagedAfter[i] is the event and entity count once batch i is staged.
	stagedAfter [][2]int
)

func init() {
	const moves = "ingest_events_per_s on ingest_stream; ingest_ack_p50_ms on soc_mixed"
	register(layer{
		name: "audit",
		defs: []Def{
			def("audit.parse_ns_per_event", "ns/event", "lower", moves),
			def("audit.parse_allocs_per_event", "allocs/event", "lower", moves),
			def("audit.stage_ns_per_event", "ns/event", "lower", moves),
			def("audit.new_entities_per_event", "count", "lower", moves+" (exact count)"),
		},
		stages: []stage{
			{10, "audit.parse", func(x *run, b *batch) error {
				recs, _, err := audit.ParseRecords(bytes.NewReader(b.body), false)
				b.recs = recs
				return err
			}},
			{20, "audit.stage", func(x *run, b *batch) error {
				staged, err := parser.Stage(b.recs)
				b.staged = staged
				return err
			}},
			// Commit publishes the staged batch; the facade does it after
			// the WAL append and before the store loads.
			{50, "audit.commit", func(x *run, b *batch) error {
				parser.Commit(b.staged)
				eventsStaged += len(b.staged.Events)
				entitiesFound += len(b.staged.NewEntities)
				stagedAfter = append(stagedAfter, [2]int{eventsStaged, entitiesFound})
				return nil
			}},
		},
		// Allocations are counted on a second parse of the first batches,
		// so that reading the memory statistics stays out of the spans.
		afterIngest: func(x *run) error {
			for _, cb := range x.c.Batches[:min(10, len(x.c.Batches))] {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				_, _, err := audit.ParseRecords(bytes.NewReader(cb.Body), false)
				runtime.ReadMemStats(&m1)
				if err != nil {
					return err
				}
				parseMallocs += m1.Mallocs - m0.Mallocs
				parseCounted += cb.Lines
			}
			return nil
		},
		finish: func(x *run) {
			n := float64(eventsStaged)
			x.set("audit.parse_ns_per_event", sum(x.tr.durs("audit.parse", "ingest", ""))/n)
			x.set("audit.parse_allocs_per_event", float64(parseMallocs)/float64(parseCounted))
			x.set("audit.stage_ns_per_event", (sum(x.tr.durs("audit.stage", "ingest", ""))+sum(x.tr.durs("audit.commit", "ingest", "")))/n)
			x.set("audit.new_entities_per_event", float64(entitiesFound)/n)
		},
	})
}

// part names the part of the corpus batch i belongs to; ingest ops carry
// it as their class.
func part(x *run, i int) string {
	if i < x.c.BulkBatches {
		return "bulk"
	}
	return "stream"
}

// layeredIngest sends every batch through the registered stages, the
// way the facade's commit path orders them, each inside its own span.
func (x *run) layeredIngest(stages []stage) error {
	for i, cb := range x.c.Batches {
		b := &batch{body: cb.Body}
		op := x.tr.op("ingest", part(x, i))
		root := x.tr.begin("layers.ingest", -1, op)
		for _, st := range stages {
			id := x.tr.begin(st.name, root, op)
			err := st.run(x, b)
			x.tr.end(id)
			if err != nil {
				return err
			}
		}
		x.tr.end(root)
	}
	x.check(eventsStaged == len(x.c.Records), "the layers staged %d events, the corpus has %d", eventsStaged, len(x.c.Records))
	return nil
}
