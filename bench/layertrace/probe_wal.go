package main

import (
	"fmt"
	"io/fs"
	"path/filepath"

	"repro"
	"repro/internal/wal"
)

var (
	layerLog     *wal.Log // the log the layered write path appends to
	walCommits   int
	walStats     wal.Stats
	walDirBytes  int64
	replayEvents int
)

func walDir(x *run) string { return filepath.Join(x.dir, "wal-layers") }

func init() {
	register(layer{
		name: "wal",
		defs: []Def{
			def("wal.append_ns_per_event", "ns/event", "lower", "ingest_ack_p50_ms and ingest_events_per_s on ingest_stream"),
			def("wal.bytes_per_event", "B/event", "lower", "disk_bytes_per_event on ingest_stream (exact count)"),
			def("wal.syncs_per_commit", "ratio", "lower", "service.ingest_ack_p95_ms on ingest_stream"),
			def("wal.replay_s", "s", "lower", "restart time after a crash; setup_s never"),
		},
		stages: []stage{
			// No segment flushes here: the log only grows, so its size at
			// the end is exactly what the appends wrote.
			{40, "wal.append", func(x *run, b *batch) error {
				if layerLog == nil {
					l, err := wal.Open(walDir(x), wal.Config{Shards: 2})
					if err != nil {
						return err
					}
					// A fresh directory replays nothing, but Append wants
					// the log recovered first.
					if _, err := l.Replay(func(*wal.Commit) error { return nil }); err != nil {
						return err
					}
					layerLog = l
				}
				walCommits++
				ack, err := layerLog.Append(&wal.Commit{Epoch: uint64(walCommits), Entities: b.staged.NewEntities, Events: b.staged.Events})
				if err != nil {
					return err
				}
				if ack != nil {
					return ack()
				}
				return nil
			}},
		},
		afterIngest: walReplay,
		finish: func(x *run) {
			n := float64(eventsStaged)
			x.set("wal.append_ns_per_event", sum(x.tr.durs("wal.append", "ingest", ""))/n)
			x.set("wal.bytes_per_event", float64(walDirBytes)/n)
			x.set("wal.syncs_per_commit", float64(walStats.Syncs)/float64(walCommits))
			x.set("wal.replay_s", sum(x.tr.durs("wal.replay", "replay", ""))/1e9)
		},
	})
}

// walReplay closes the layered path's log, then opens it again the way a
// restarted daemon does and times recovery into a fresh System.
func walReplay(x *run) error {
	walStats = layerLog.Stats()
	if err := layerLog.Close(); err != nil {
		return err
	}
	err := filepath.WalkDir(walDir(x), func(_ string, e fs.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			var info fs.FileInfo
			if info, err = e.Info(); err == nil {
				walDirBytes += info.Size()
			}
		}
		return err
	})
	if err != nil {
		return err
	}
	op := x.tr.op("replay", "")
	id := x.tr.begin("wal.replay", -1, op)
	l, err := wal.Open(walDir(x), wal.Config{Shards: 2})
	if err != nil {
		return err
	}
	sys, err := threatraptor.New(threatraptor.Options{Shards: 2, WAL: l})
	x.tr.end(id)
	if err != nil {
		return fmt.Errorf("replaying the layered log: %w", err)
	}
	x.check(sys.NumEvents() == eventsStaged, "replay restored %d events, %d were appended", sys.NumEvents(), eventsStaged)
	return l.Close()
}
