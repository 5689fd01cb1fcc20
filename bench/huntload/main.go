// Command huntload is the end-to-end half of the benchmark: it spawns the
// real threatraptord, drives it over loopback HTTP from at most two
// generator goroutines, checks every answer against expectations worked
// out from the generated records, and prints the end-to-end metrics.
//
//	huntload -daemon BIN -workload hunt_repeat -seed 1 -seconds 10
//	huntload -daemon BIN -workload all -out runs.jsonl
//	huntload -daemon BIN -layertrace BIN -workload soc_mixed -trace 1
//	huntload -compare a.jsonl b.jsonl
//
// bench/run.sh builds the three binaries and passes them in. Apart from
// bench/corpus (the generator and the log line format) huntload imports
// nothing of the program, so refactors cannot invalidate its numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/bench/corpus"
	"repro/bench/stats"
)

// endToEnd defines the metrics a user of the daemon would see. Bounds are
// the regression limits BENCHMARK.json registers with the driver (a test
// keeps the two in step).
var endToEnd = []stats.Def{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ingest_events_per_s", Unit: "events/s", Better: "higher", Bound: 0.25},
	{Name: "ingest_ack_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "hunt_round_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "hunts_per_s", Unit: "hunts/s", Better: "higher", Bound: 0.25},
	{Name: "page_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rows_per_s", Unit: "rows/s", Better: "higher", Bound: 0.25},
	{Name: "watch_delay_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "disk_bytes_per_event", Unit: "B/event", Better: "lower", Bound: 0.05},
}

// serviceLayer defines the per-layer metrics this program contributes to
// a traced run: per-class hunt medians, and the tail latencies whose
// run-to-run spread is too wide for an end-to-end bound.
var serviceLayer = func() []stats.Def {
	defs := []stats.Def{
		{Name: "service.ingest_ack_p95_ms", Unit: "ms", Better: "lower"},
		{Name: "service.hunt_round_p95_ms", Unit: "ms", Better: "lower"},
		{Name: "service.watch_delay_p95_ms", Unit: "ms", Better: "lower"},
	}
	for _, class := range corpus.Classes {
		defs = append(defs, stats.Def{Name: "service.hunt_" + string(class) + "_p50_ms", Unit: "ms", Better: "lower"})
	}
	return defs
}()

// reported is one metric of one run with the samples behind it.
type reported struct {
	stats.Def
	value float64
	n     int
}

// orCover picks the window's tally when the window measured the thing,
// else the coverage pass's.
func orCover(measured bool, window, cover *huntTally) *huntTally {
	if measured {
		return window
	}
	return cover
}

// metrics turns what the run measured into the named metrics.
func (r *run) metrics() (e2e, layer []reported) {
	ingest := &r.coverIngest
	if r.windowIngest.events.Load() > 0 {
		ingest = &r.windowIngest
	}
	rounds := orCover(r.window.rounds.N() > 0, &r.window, &r.cover)
	rate := orCover(r.window.hunts.Load() > 0, &r.window, &r.cover)
	pages := orCover(r.window.pages.N() > 0, &r.window, &r.cover)

	values := map[string]reported{
		"setup_s":              {value: stats.Median(r.setups), n: len(r.setups)},
		"ingest_events_per_s":  {value: float64(ingest.events.Load()) / ingest.wall.Seconds(), n: ingest.ack.N()},
		"ingest_ack_p50_ms":    {value: ingest.ack.P(50), n: ingest.ack.N()},
		"hunt_round_p50_ms":    {value: rounds.rounds.P(50), n: rounds.rounds.N()},
		"hunts_per_s":          {value: float64(rate.hunts.Load()) / rate.wall.Seconds(), n: int(rate.hunts.Load())},
		"page_p50_ms":          {value: pages.pages.P(50), n: pages.pages.N()},
		"rows_per_s":           {value: float64(rate.rows.Load()) / rate.wall.Seconds(), n: int(rate.rows.Load())},
		"watch_delay_p50_ms":   {value: r.watchDelay.P(50), n: r.watchDelay.N()},
		"rss_peak_mb":          {value: r.rssMB, n: 1},
		"disk_bytes_per_event": {value: r.diskPerEvent, n: 1},

		"service.ingest_ack_p95_ms":  {value: ingest.ack.P(95), n: ingest.ack.N()},
		"service.hunt_round_p95_ms":  {value: rounds.rounds.P(95), n: rounds.rounds.N()},
		"service.watch_delay_p95_ms": {value: r.watchDelay.P(95), n: r.watchDelay.N()},
	}
	for _, class := range corpus.Classes {
		s := r.class[class]
		values["service.hunt_"+string(class)+"_p50_ms"] = reported{value: s.P(50), n: s.N()}
	}
	fill := func(defs []stats.Def) []reported {
		out := make([]reported, len(defs))
		for i, d := range defs {
			out[i] = values[d.Name]
			out[i].Def = d
		}
		return out
	}
	return fill(endToEnd), fill(serviceLayer)
}

func printMetrics(w io.Writer, ms []reported) {
	for _, m := range ms {
		note := ""
		if strings.Contains(m.Name, "_p95_") && !stats.Supports(m.n, 95) {
			note = fmt.Sprintf("  (fewer than 200 samples: this run supports p%g at most)", stats.Supported(m.n))
		}
		fmt.Fprintf(w, "  %-30s %14.4f %-9s n=%d%s\n", m.Name, m.value, m.Unit, m.n, note)
	}
}

// scratch is the current run's scratch directory.
var scratch atomic.Value

// abort ends the program from outside the run's own goroutine (a signal,
// the watchdog): daemons are killed and the scratch data removed first.
func abort(code int) {
	killAll()
	if dir, ok := scratch.Load().(string); ok {
		_ = os.RemoveAll(dir) // exiting anyway
	}
	os.Exit(code)
}

type options struct {
	daemon, layertrace, outDir, outFile string
	seed                                int64
	seconds                             int
	trace                               int
	smoke                               bool
}

// runOne runs one workload and returns its result. Scratch files live
// under the output directory and go away on success; after a failure the
// daemon's logs stay behind in a directory the message names.
func runOne(workload string, o options) (res stats.Result, err error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return res, err
	}
	tmp, err := os.MkdirTemp(o.outDir, "tmp-"+workload+"-")
	if err != nil {
		return res, err
	}
	tmp, err = filepath.Abs(tmp)
	if err != nil {
		return res, err
	}
	scratch.Store(tmp)
	r := &run{workload: workload, seed: o.seed, seconds: o.seconds, sz: fullSizes, daemon: o.daemon, tmp: tmp}
	if o.smoke {
		r.sz = smokeSizes
	}
	if o.trace == 1 {
		// A traced run needs the window, not a steady setup_s.
		r.sz.setups = 1
	}
	// A run that outlives the driver's patience is stopped, daemon and all.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "huntload: run exceeded 170 s; stopping")
		abort(3)
	})
	defer watchdog.Stop()
	defer func() {
		killAll()
		if r.cli != nil {
			r.cli.close()
		}
		if err != nil || !res.Correct {
			keep := filepath.Join(o.outDir, fmt.Sprintf("failed-%s-seed%d", workload, o.seed))
			_ = os.RemoveAll(keep) // a stale copy from an earlier failure
			if logs, _ := filepath.Glob(filepath.Join(tmp, "*.log")); len(logs) > 0 && os.MkdirAll(keep, 0o755) == nil {
				for _, l := range logs {
					_ = os.Rename(l, filepath.Join(keep, filepath.Base(l))) // best effort: the failure itself is reported
				}
				fmt.Fprintf(os.Stderr, "huntload: daemon logs kept in %s\n", keep)
			}
		}
		if rmErr := os.RemoveAll(tmp); rmErr != nil && err == nil {
			err = rmErr
		}
	}()

	fmt.Printf("== %s  seed=%d seconds=%d trace=%d\n", workload, o.seed, o.seconds, o.trace)
	if err := r.execute(); err != nil {
		return res, err
	}
	e2e, layer := r.metrics()
	printMetrics(os.Stdout, e2e)
	printMetrics(os.Stdout, layer)
	for _, f := range r.failures {
		fmt.Printf("  FAILED %s\n", f)
	}
	for _, f := range r.invalid {
		fmt.Printf("  INVALID %s\n", f)
	}
	res = stats.Result{
		Correct:   r.failed.Load() == 0 && len(r.invalid) == 0,
		Attempted: int(r.attempted.Load()),
		Failed:    int(r.failed.Load()),
		Metrics:   map[string]stats.Value{},
	}
	// Every run measures both kinds; the driver asks for one of them.
	for _, m := range append(e2e, layer...) {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return res, fmt.Errorf("%s has no samples", m.Name)
		}
	}
	report := e2e
	if o.trace == 1 {
		report = layer
	}
	for _, m := range report {
		res.Metrics[m.Name] = stats.Value{Value: m.value, Unit: m.Unit}
	}
	if o.trace == 1 {
		traced, err := runLayertrace(workload, o)
		if err != nil {
			return res, err
		}
		res.Correct = res.Correct && traced.Correct
		res.Attempted += traced.Attempted
		res.Failed += traced.Failed
		for name, v := range traced.Metrics {
			res.Metrics[name] = v
		}
	}
	fmt.Printf("  operations attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
	return res, nil
}

// runLayertrace runs the traced half as a child process: it links the
// program's internals, which this program must not.
func runLayertrace(workload string, o options) (stats.Result, error) {
	var res stats.Result
	if o.layertrace == "" {
		return res, fmt.Errorf("-trace 1 needs -layertrace, the path of the layertrace binary")
	}
	args := []string{"-workload", workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-out", o.outDir}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(o.layertrace, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlives this process
	out, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("layertrace: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("layertrace's last line is not a result: %w", err)
	}
	return res, nil
}

func compare(a, b string) int {
	ra, err := stats.ReadRuns(a)
	if err != nil {
		fmt.Fprintln(os.Stderr, "huntload:", err)
		return 2
	}
	rb, err := stats.ReadRuns(b)
	if err != nil {
		fmt.Fprintln(os.Stderr, "huntload:", err)
		return 2
	}
	if n := stats.PrintComparison(os.Stdout, stats.Compare(endToEnd, ra, rb)); n > 0 {
		fmt.Printf("%d metric(s) regressed beyond their bound\n", n)
		return 1
	}
	return 0
}

func main() {
	// The generator shares two cores with the daemon it measures. It holds
	// the corpus and makes little garbage, so collect rarely.
	debug.SetGCPercent(400)

	// Pdeathsig is tied to the thread that forked the child; daemons are
	// started from this goroutine, so keep it on the main thread.
	runtime.LockOSThread()

	var o options
	workload := flag.String("workload", "all", "ingest_stream, hunt_repeat, hunt_scan_cold, soc_mixed, or all")
	flag.StringVar(&o.daemon, "daemon", "", "path of the threatraptord binary")
	flag.StringVar(&o.layertrace, "layertrace", "", "path of the layertrace binary (for -trace 1)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&o.seconds, "seconds", 15, "length of the measured window")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics (runs layertrace too)")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny inputs, to check the harness rather than measure")
	flag.StringVar(&o.outDir, "outdir", "bench/out", "directory for scratch data, failure logs and trace files")
	flag.StringVar(&o.outFile, "out", "", "append each run's result to this file, one JSON object per line")
	runs := flag.Int("runs", 1, "runs per workload, each with the next seed")
	cmp := flag.Bool("compare", false, "compare two files written with -out: huntload -compare a b")
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: huntload -compare a.jsonl b.jsonl")
			os.Exit(2)
		}
		os.Exit(compare(flag.Arg(0), flag.Arg(1)))
	}
	if o.daemon == "" || o.seconds < 1 || *runs < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: huntload -daemon BIN [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1] [-runs N] [-out FILE]")
		os.Exit(2)
	}
	todo := corpus.Workloads
	if *workload != "all" {
		todo = []string{*workload}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		abort(130)
	}()

	exit := 0
	var last stats.Result
	for _, w := range todo {
		for i := 0; i < *runs; i++ {
			oi := o
			oi.seed = o.seed + int64(i)
			res, err := runOne(w, oi)
			if err != nil {
				fmt.Fprintf(os.Stderr, "huntload: %s: %v\n", w, err)
				os.Exit(1)
			}
			if !res.Correct {
				exit = 1
			}
			last = res
			if o.outFile != "" {
				if err := appendRun(o.outFile, stats.Run{Workload: w, Seed: oi.seed, Result: res}); err != nil {
					fmt.Fprintln(os.Stderr, "huntload:", err)
					os.Exit(1)
				}
			}
		}
	}
	// The driver reads the last line of a single-workload run.
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(os.Stderr, "huntload:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	os.Exit(exit)
}

func appendRun(path string, r stats.Run) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
