// Command layertrace is the traced half of the benchmark. It generates
// the inputs huntload ships for a workload and replays them serially, in
// process, through each layer's public functions with a span around
// every call. Spans stay in memory and go to trace-<workload>.json at
// exit; the per-layer metrics are worked out from them.
//
//	layertrace -workload hunt_repeat -seed 1 -seconds 10 -out bench/out
//	layertrace -list
//
// Each layer is bound in its own probe_<layer>.go, which registers the
// layer's metrics, its stages of the write path, and how its metrics
// follow from the spans. A change that removes a layer removes that file
// (and, for a layer the hunt probe calls directly, the call).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"repro/bench/corpus"
	"repro/bench/stats"
)

// Def is a per-layer metric and the end-to-end metric it should move.
type Def struct {
	stats.Def
	Moves string `json:"moves"`
}

func def(name, unit, better, moves string) Def {
	return Def{stats.Def{Name: name, Unit: unit, Better: better}, moves}
}

// A stage is one step of the write path, run once per ingest batch in
// order of its rank, inside a span called name.
type stage struct {
	rank int
	name string
	run  func(x *run, b *batch) error
}

// A layer is what one probe file registers.
type layer struct {
	name   string
	defs   []Def
	stages []stage
	// afterIngest runs once the layered write path is done, before the
	// facade takes over: probes of what it built, and dropping it.
	afterIngest func(x *run) error
	// finish works the layer's metrics out of the spans and counters.
	finish func(x *run)
}

var layers []layer

func register(l layer) { layers = append(layers, l) }

// run is the state of one traced replay.
type run struct {
	workload string
	c        *corpus.Corpus
	dir      string // scratch directory for the logs
	tr       *tracer
	pageRows int // rows of a scan or join page
	iters    int // measured hunts per class
	// expect holds the answers of the small-answer classes, worked out once.
	expect   map[corpus.Class][]corpus.Row
	vals     map[string]float64
	failures []string
	checks   int
}

func (x *run) set(name string, v float64) { x.vals[name] = v }

// expected is Corpus.Expect, computed once per class.
func (x *run) expected(class corpus.Class) []corpus.Row {
	rows, ok := x.expect[class]
	if !ok {
		rows = x.c.Expect(class)
		x.expect[class] = rows
	}
	return rows
}

// check counts one verification of the replay itself.
func (x *run) check(ok bool, format string, args ...any) {
	x.checks++
	if !ok {
		x.failures = append(x.failures, fmt.Sprintf(format, args...))
	}
}

func allDefs() []Def {
	var defs []Def
	for _, l := range layers {
		defs = append(defs, l.defs...)
	}
	return defs
}

func main() {
	workload := flag.String("workload", "hunt_repeat", "workload whose inputs to replay")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 15, "window length the inputs are sized for")
	smoke := flag.Bool("smoke", false, "tiny inputs, to check the harness rather than measure")
	out := flag.String("out", "bench/out", "directory for the trace file and scratch data")
	list := flag.Bool("list", false, "print every per-layer metric with what it should move, and exit")
	flag.Parse()

	if *list {
		for _, d := range allDefs() {
			fmt.Printf("%-40s %-10s %-7s %s\n", d.Name, d.Unit, d.Better, d.Moves)
		}
		return
	}
	if err := trace(*workload, *seed, *seconds, *smoke, *out); err != nil {
		fmt.Fprintln(os.Stderr, "layertrace:", err)
		os.Exit(1)
	}
}

func trace(workload string, seed int64, seconds int, smoke bool, out string) error {
	sizing := corpus.Full
	if smoke {
		sizing = corpus.Smoke
	}
	spec, err := sizing.Spec(workload, seed, seconds)
	if err != nil {
		return err
	}
	c, err := corpus.Build(spec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(out, "tmp-layertrace-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// The collector runs when the heap has doubled. Whichever pass runs
	// first starts on a small heap and would pay many more collections
	// than the next; a pointer-free block that is never touched costs no
	// memory and puts both passes on the same footing.
	ballast := make([]byte, 1<<30)
	defer runtime.KeepAlive(ballast)

	x := &run{workload: workload, c: c, dir: dir, tr: newTracer(), expect: map[corpus.Class][]corpus.Row{}, vals: map[string]float64{}}
	// Hunts get slower as the store grows; keep the replay's length level.
	x.pageRows, x.iters = sizing.PageRows, max(3, min(16, 2_000_000/len(c.Records)))

	if err := x.replay(); err != nil {
		return err
	}
	for _, l := range layers {
		l.finish(x)
	}

	path := filepath.Join(out, "trace-"+workload+".json")
	if err := x.tr.write(path); err != nil {
		return err
	}
	fmt.Printf("== layertrace %s  seed=%d  %d records, %d ops, %d spans -> %s\n",
		workload, seed, len(c.Records), len(x.tr.Ops), len(x.tr.Spans), path)
	res := stats.Result{Correct: len(x.failures) == 0, Attempted: x.checks, Failed: len(x.failures), Metrics: map[string]stats.Value{}}
	for _, d := range allDefs() {
		v, ok := x.vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		fmt.Printf("  %-40s %16.4f %s\n", d.Name, v, d.Unit)
		res.Metrics[d.Name] = stats.Value{Value: v, Unit: d.Unit}
	}
	for _, f := range x.failures {
		fmt.Printf("  FAILED %s\n", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// replay runs the inputs through the layers, then through the facade.
func (x *run) replay() error {
	var stages []stage
	for _, l := range layers {
		stages = append(stages, l.stages...)
	}
	sort.Slice(stages, func(i, j int) bool { return stages[i].rank < stages[j].rank })
	if err := x.layeredIngest(stages); err != nil {
		return err
	}
	for _, l := range layers {
		if l.afterIngest != nil {
			if err := l.afterIngest(x); err != nil {
				return fmt.Errorf("%s: %w", l.name, err)
			}
		}
	}
	return x.facadeReplay()
}

// median of samples, NaN when there are none.
func median(xs []float64) float64 { return stats.Median(xs) }
