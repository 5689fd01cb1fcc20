package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// An op is one replayed operation (an ingest batch, a hunt, a watch
// commit); its spans share its id.
type op struct {
	ID    int    `json:"id"`
	Kind  string `json:"kind"`            // ingest, hunt, warmup, watch, cti, replay
	Class string `json:"class,omitempty"` // hunt class, where there is one
}

// A span is one timed call into a layer. Times are nanoseconds since the
// run began; Parent is the index of the span that caused it, or -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps every span in memory until the run ends. The replay is
// serial, so it needs no lock.
type tracer struct {
	t0    time.Time
	Ops   []op   `json:"ops"`
	Spans []span `json:"spans"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) op(kind, class string) int {
	t.Ops = append(t.Ops, op{ID: len(t.Ops), Kind: kind, Class: class})
	return len(t.Ops) - 1
}

func (t *tracer) begin(name string, parent, op int) int {
	t.Spans = append(t.Spans, span{Name: name, Start: t.now(), End: -1, Parent: parent, Op: op})
	return len(t.Spans) - 1
}

func (t *tracer) end(id int) { t.Spans[id].End = t.now() }

// add records a span timed elsewhere (the engine's own trace).
func (t *tracer) add(name string, parent, op int, start, end int64) int {
	t.Spans = append(t.Spans, span{Name: name, Start: start, End: end, Parent: parent, Op: op})
	return len(t.Spans) - 1
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// durs lists the durations (ns) of the spans called name whose op has
// the given kind and, unless class is empty, class.
func (t *tracer) durs(name, kind, class string) []float64 {
	var out []float64
	for _, s := range t.Spans {
		o := t.Ops[s.Op]
		if s.Name == name && o.Kind == kind && (class == "" || o.Class == class) {
			out = append(out, s.dur())
		}
	}
	return out
}

// perOp sums, per op, the durations of the spans matching pick, for the
// ops of the given kind and class. Ops without such a span count as 0.
func (t *tracer) perOp(kind, class string, pick func(s span) bool) []float64 {
	sums := map[int]float64{}
	for i, o := range t.Ops {
		if o.Kind == kind && o.Class == class {
			sums[i] = 0
		}
	}
	for _, s := range t.Spans {
		if _, ok := sums[s.Op]; ok && pick(s) {
			sums[s.Op] += s.dur()
		}
	}
	ids := make([]int, 0, len(sums))
	for id := range sums {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]float64, len(ids))
	for i, id := range ids {
		out[i] = sums[id]
	}
	return out
}

// selfShare is, per span called name (of hunts of class), the share of
// its duration that no direct child covers.
func (t *tracer) selfShare(name, class string) []float64 {
	covered := map[int]float64{}
	for _, s := range t.Spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.dur()
		}
	}
	var out []float64
	for i, s := range t.Spans {
		o := t.Ops[s.Op]
		if s.Name == name && o.Kind == "hunt" && o.Class == class && s.dur() > 0 {
			out = append(out, 1-covered[i]/s.dur())
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
