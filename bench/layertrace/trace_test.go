package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// A hunt of 100 ns with children covering 30 + 50 ns has a self share of
// 0.2; grandchildren do not count twice.
func TestSelfShareAndPerOp(t *testing.T) {
	tr := newTracer()
	hunt := tr.op("hunt", "leak8")
	other := tr.op("hunt", "path")
	whole := tr.add("facade.hunt", -1, hunt, 0, 100)
	fetch := tr.add("exec.fetch", whole, hunt, 10, 40)
	tr.add("relstore.query", fetch, hunt, 12, 30)
	tr.add("relstore.query", fetch, hunt, 12, 38)
	tr.add("exec.drain", whole, hunt, 45, 95)
	tr.add("facade.hunt", -1, other, 200, 300)

	if got := tr.selfShare("facade.hunt", "leak8"); len(got) != 1 || got[0] < 0.1999 || got[0] > 0.2001 {
		t.Errorf("self share = %v, want [0.2]", got)
	}
	if got := tr.selfShare("facade.hunt", "path"); len(got) != 1 || got[0] != 1 {
		t.Errorf("self share of a childless span = %v, want [1]", got)
	}
	busy := tr.perOp("hunt", "leak8", func(s span) bool { return s.Name == "relstore.query" })
	if len(busy) != 1 || busy[0] != 18+26 {
		t.Errorf("store busy time per hunt = %v, want [44]", busy)
	}
	if got := tr.perOp("hunt", "path", func(s span) bool { return s.Name == "relstore.query" }); len(got) != 1 || got[0] != 0 {
		t.Errorf("a hunt without such spans = %v, want [0]", got)
	}
	if got := tr.durs("exec.fetch", "hunt", "leak8"); len(got) != 1 || got[0] != 30 {
		t.Errorf("durs = %v, want [30]", got)
	}
}

func TestTraceFileHasSpansAndOps(t *testing.T) {
	tr := newTracer()
	batch := tr.op("ingest", "bulk")
	id := tr.begin("layers.ingest", -1, batch)
	child := tr.begin("audit.parse", id, batch)
	tr.end(child)
	tr.end(id)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Ops   []op   `json:"ops"`
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Ops) != 1 || len(got.Spans) != 2 {
		t.Fatalf("trace file holds %d ops and %d spans, want 1 and 2", len(got.Ops), len(got.Spans))
	}
	s := got.Spans[1]
	if s.Name != "audit.parse" || s.Parent != 0 || s.Op != 0 || s.End < s.Start {
		t.Errorf("span read back as %+v", s)
	}
}

// Every metric must say what it should move, and names must fit the
// benchmark contract's alphabet.
func TestEveryMetricHasMoves(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range allDefs() {
		if d.Moves == "" {
			t.Errorf("%s has no moves entry", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("%s is registered twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
		if len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("%s (%s): name or unit too long", d.Name, d.Unit)
		}
	}
}
