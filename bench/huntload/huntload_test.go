package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/bench/corpus"
	"repro/bench/stats"
)

// build compiles one of the programs the harness spawns.
func build(t *testing.T, dir, pkg string) string {
	t.Helper()
	bin := filepath.Join(dir, filepath.Base(pkg))
	if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// TestSmoke runs every workload at smoke size, traced, against the real
// daemon: the spawn, both collectors, every hunt class and its answer
// check, the webhook sink, the kill -9 and restart of ingest_stream, the
// layertrace child and its trace file all have to work, and every metric
// of both kinds has to come out.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the daemon")
	}
	dir := t.TempDir()
	o := options{
		daemon:     build(t, dir, "repro/cmd/threatraptord"),
		layertrace: build(t, dir, "repro/bench/layertrace"),
		outDir:     filepath.Join(dir, "out"),
		seed:       3, seconds: 1, trace: 1, smoke: true,
	}
	for _, w := range corpus.Workloads {
		res, err := runOne(w, o)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v, %d of %d operations failed", w, res.Correct, res.Failed, res.Attempted)
		}
		if _, err := os.Stat(filepath.Join(o.outDir, "trace-"+w+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", w, err)
		}
		for _, d := range serviceLayer {
			if _, ok := res.Metrics[d.Name]; !ok {
				t.Errorf("%s: traced run lacks %s", w, d.Name)
			}
		}
	}
	// Nothing may outlive the runs: no daemon, no scratch directory.
	liveMu.Lock()
	n := len(live)
	liveMu.Unlock()
	if n != 0 {
		t.Errorf("%d daemons still running", n)
	}
	if left, _ := filepath.Glob(filepath.Join(o.outDir, "tmp-*")); len(left) != 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, which the driver reads, in step
// with the tables the programs report from.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []stats.Def                  `json:"end_to_end"`
		PerLayer  []stats.Def                  `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(corpus.Workloads, ",") {
		t.Errorf("workloads: BENCHMARK.json has %v, the benchmark runs %v", names, corpus.Workloads)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end: BENCHMARK.json has %d metrics, huntload reports %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if b.EndToEnd[i] != d {
			t.Errorf("end_to_end[%d]: BENCHMARK.json has %+v, huntload has %+v", i, b.EndToEnd[i], d)
		}
	}

	// The per-layer list is huntload's service metrics plus everything
	// layertrace registers.
	want := map[string]stats.Def{}
	for _, d := range serviceLayer {
		want[d.Name] = d
	}
	out, err := exec.Command("go", "run", "repro/bench/layertrace", "-list").Output()
	if err != nil {
		t.Fatalf("layertrace -list: %v", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Fields(line)
		if len(f) < 4 {
			t.Fatalf("layertrace -list: line %q has no moves entry", line)
		}
		want[f[0]] = stats.Def{Name: f[0], Unit: f[1], Better: f[2]}
	}
	got := map[string]stats.Def{}
	for _, d := range b.PerLayer {
		got[d.Name] = d
	}
	var diff []string
	for n, d := range want {
		if got[n] != d {
			diff = append(diff, n)
		}
	}
	for n := range got {
		if _, ok := want[n]; !ok {
			diff = append(diff, n)
		}
	}
	sort.Strings(diff)
	if len(diff) > 0 || len(b.PerLayer) > 128 {
		t.Errorf("per_layer (%d entries) differs from what the programs report on: %v", len(b.PerLayer), diff)
	}
}
