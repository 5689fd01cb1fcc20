package main

import (
	"repro"
	"repro/bench/corpus"
	"repro/internal/service"
	"repro/internal/tbql"
)

var watchCommits int

func init() {
	const moves = "watch_delay_p50_ms and ingest_ack_p50_ms on soc_mixed"
	register(layer{
		name: "watch",
		defs: []Def{
			def("watch.backfill_ms", "ms", "lower", "registration time of the four standing hunts; no window metric"),
			def("watch.sync_us_per_commit", "us", "lower", moves),
			def("watch.rows_per_commit", "ratio", "lower", moves+" (exact count)"),
		},
		finish: func(x *run) {
			x.set("watch.backfill_ms", sum(x.tr.durs("watch.backfill", "watch", ""))/1e6)
			x.set("watch.sync_us_per_commit", median(x.tr.durs("watch.sync", "watch", ""))/1e3)
			x.set("watch.rows_per_commit", float64(watchRows)/float64(watchCommits))
		},
	})
}

var watchRows int

// watchReplay registers the four standing hunts on the loaded store, then
// ships the stream batch by batch through the HTTP handler, evaluating
// the hunts after each commit and collecting what they deliver.
func (x *run) watchReplay(sys *threatraptor.System, srv *service.Server) error {
	var watches []*threatraptor.Watch
	got := map[corpus.Class][][]string{}
	collect := func() {
		for i, w := range watches {
			for {
				select {
				case b := <-w.C():
					got[corpus.WatchClasses[i]] = append(got[corpus.WatchClasses[i]], b.Rows...)
					continue
				default:
				}
				break
			}
		}
	}
	for _, class := range corpus.WatchClasses {
		q, err := tbql.Parse(corpus.Text(class))
		if err != nil {
			return err
		}
		op := x.tr.op("watch", string(class))
		id := x.tr.begin("watch.backfill", -1, op)
		w, err := sys.Watch(q, threatraptor.WatchOptions{})
		x.tr.end(id)
		if err != nil {
			return err
		}
		defer w.Close()
		watches = append(watches, w)
	}
	collect()
	backfilled := 0
	for _, rows := range got {
		backfilled += len(rows)
	}
	for _, b := range x.c.Batches[x.c.BulkBatches:] {
		op := x.tr.op("watch", "")
		if err := x.serviceIngest(srv, b, op); err != nil {
			return err
		}
		id := x.tr.begin("watch.sync", -1, op)
		sys.SyncWatches()
		x.tr.end(id)
		watchCommits++
		collect()
	}
	all := len(x.c.Batches)
	for i, class := range corpus.WatchClasses {
		x.check(watches[i].Err() == nil, "watch %s ended: %v", class, watches[i].Err())
		err := corpus.CheckSet(x.expected(class), got[class], all, all)
		x.check(err == nil, "matches of watch %s: %v", class, err)
		watchRows += len(got[class])
	}
	watchRows -= backfilled
	return nil
}
