package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro"
	"repro/bench/corpus"
	"repro/internal/obs"
	"repro/internal/tbql"
	"repro/internal/wal"
)

func init() {
	l := layer{
		name: "facade",
		defs: []Def{
			def("facade.ingest_ns_per_event", "ns/event", "lower", "ingest_events_per_s on ingest_stream: the whole the write-side layers add up to"),
			def("facade.ingest_unattributed_share", "ratio", "lower", "the share of facade.ingest_ns_per_event no write-side layer accounts for"),
		},
	}
	for _, class := range allClasses {
		l.defs = append(l.defs, def("facade.hunt_us."+class, "us", "lower", "service.hunt_"+class+"_p50_ms: the whole the read-side layers add up to"))
	}
	for _, class := range execStageClasses {
		l.defs = append(l.defs, def("facade.hunt_unattributed_share."+class, "ratio", "lower", "the share of facade.hunt_us."+class+" outside snapshot, optimize, fetch and drain"))
	}
	l.finish = func(x *run) {
		// Both passes ran the bulk batches, so their totals compare: the
		// facade's against everything the layered write path ran.
		whole := sum(x.tr.durs("facade.ingest", "ingest", "bulk"))
		layered := sum(x.tr.durs("layers.ingest", "ingest", "bulk"))
		x.set("facade.ingest_ns_per_event", whole/float64(x.c.BulkLines()))
		x.set("facade.ingest_unattributed_share", 1-layered/whole)
		for _, class := range allClasses {
			x.set("facade.hunt_us."+class, median(x.tr.durs("facade.hunt", "hunt", class))/1e3)
		}
		for _, class := range execStageClasses {
			x.set("facade.hunt_unattributed_share."+class, median(x.tr.selfShare("facade.hunt", class)))
		}
	}
	register(l)
}

// facadeReplay is the second pass: the same batches through the facade
// the daemon calls, then every hunt class against the loaded store, then
// the stream under standing hunts.
func (x *run) facadeReplay() error {
	// The daemon's own log settings: fsync every 100 ms, segments every 2 s.
	log, err := wal.Open(filepath.Join(x.dir, "wal-facade"), wal.Config{SegmentInterval: 2 * time.Second, Shards: 2})
	if err != nil {
		return err
	}
	sys, err := threatraptor.New(threatraptor.Options{Shards: 2, WAL: log})
	if err != nil {
		return err
	}
	defer log.Close() // read-only from here on; the failure paths report their own error
	srv := newService(sys, log)
	defer srv.Close()

	for _, b := range x.c.Batches[:x.c.BulkBatches] {
		op := x.tr.op("ingest", "bulk")
		id := x.tr.begin("facade.ingest", -1, op)
		st, err := sys.IngestLogs(bytes.NewReader(b.Body))
		x.tr.end(id)
		if err != nil {
			return err
		}
		x.check(st.EventsStored == b.Lines, "the facade stored %d of %d events", st.EventsStored, b.Lines)
	}

	uniq := 0
	for _, class := range corpus.Classes {
		cold := class == corpus.Scan || class == corpus.Join
		text := func() string {
			uniq++
			switch class {
			case corpus.Scan:
				return x.c.ScanText(uniq)
			case corpus.Join:
				return x.c.JoinText(uniq)
			}
			return corpus.Text(class)
		}
		limit := corpus.SmallPage
		if cold {
			limit = x.pageRows
		}
		iters := x.iters
		if !cold {
			iters++ // the first hunt of a fixed text fills the caches
		}
		for i := 0; i < iters; i++ {
			kind := "hunt"
			if !cold && i == 0 {
				kind = "warmup"
			}
			// The facade and the HTTP path take turns going first, so
			// neither always finds the processor caches warm; each gets a
			// text of its own, so a cold class stays cold for both.
			if kind == "hunt" && i%2 == 1 {
				if err := x.serviceHunt(srv, string(class), text(), limit); err != nil {
					return err
				}
			}
			q, err := x.hunt(sys, class, kind, text(), limit)
			if err != nil {
				return fmt.Errorf("%s: %w", class, err)
			}
			if kind == "warmup" {
				continue
			}
			if i%2 == 0 {
				if err := x.serviceHunt(srv, string(class), text(), limit); err != nil {
					return err
				}
			}
			if cold {
				if q, err = tbql.Parse(text()); err != nil {
					return err
				}
			}
			if err := x.explain(sys, q, string(class)); err != nil {
				return err
			}
		}
	}
	if err := x.servicePages(srv, x.c.ScanText(uniq+1)); err != nil {
		return err
	}
	if err := x.watchReplay(sys, srv); err != nil {
		return err
	}
	return x.ctiProbe()
}

// hunt runs one hunt through the facade: parse and analyze, execute with
// a trace the engine fills, drain the first page.
func (x *run) hunt(sys *threatraptor.System, class corpus.Class, kind, text string, limit int) (*tbql.Query, error) {
	op := x.tr.op(kind, string(class))
	root := x.tr.begin("hunt", -1, op)
	q, err := x.parseAnalyze(text, root, op)
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	whole := x.tr.begin("facade.hunt", root, op)
	base := x.tr.now()
	ot := obs.NewTrace()
	cur, err := sys.HuntQueryCursorCtx(context.Background(), q, 0, ot)
	if err != nil {
		return nil, err
	}
	drain := x.tr.begin("exec.drain", whole, op)
	var rows [][]string
	for len(rows) < limit && cur.Next() {
		rows = append(rows, cur.Row())
	}
	x.tr.end(drain)
	st := cur.Stats()
	err = cur.Err()
	cur.Close()
	x.tr.end(whole)
	runtime.ReadMemStats(&m1)
	x.tr.end(root)
	if err != nil {
		return nil, err
	}
	x.importTrace(ot, base, whole, drain, op, string(class))
	if kind == "hunt" {
		huntCounts[string(class)] = append(huntCounts[string(class)], huntCount{
			rows: len(rows), fetched: st.RowsFetched, candidates: st.JoinCandidates, shardFetches: st.ShardFetches,
			planHits: st.PlanCacheHits, planMisses: st.PlanCacheMisses,
			mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc,
		})
	}
	// The replay checks its answers too, against the same expectations.
	stored := x.c.BulkBatches
	switch class {
	case corpus.Scan, corpus.Join:
		x.check(len(rows) == limit, "%s returned %d rows on its first page, want %d", class, len(rows), limit)
	default:
		err := corpus.CheckSet(x.expected(class), rows, stored, stored)
		x.check(err == nil, "answer of %s: %v", class, err)
	}
	return q, nil
}
