package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/bench/corpus"
	"repro/bench/stats"
)

// sizes fixes how much work a run does beyond what corpus.Sizing fixes.
type sizes struct {
	corpus.Sizing
	setups       int // set-ups per run; setup_s is their median
	socScanEvery int // the soc_mixed analyst reads a scan or join after every n-th round
	coverRounds  int // coverage pass: rounds and scan+join pairs
	coverScans   int
}

var fullSizes = sizes{Sizing: corpus.Full, setups: 4, socScanEvery: 5, coverRounds: 20, coverScans: 2}

// smokeSizes keeps every code path alive in about a second per workload.
var smokeSizes = sizes{Sizing: corpus.Smoke, setups: 1, socScanEvery: 2, coverRounds: 2, coverScans: 1}

const (
	scanPages    = 9 // /hunt/next pages a scanner reads per hunt
	socScanPages = 3 // and the soc_mixed analyst
	// quiesce is three of the daemon's fsync intervals.
	quiesce = 300 * time.Millisecond
)

// repeatRound is the hunt_repeat round. On the 60 000-event store the
// path class costs about 70 ms and the other four about 30 ms together,
// so those four go round four times: no class then takes more than 40%
// of the round (the measured shares are in bench/README.md).
var repeatRound = func() []corpus.Class {
	var round []corpus.Class
	for i := 0; i < 4; i++ {
		round = append(round, corpus.Leak8, corpus.Crack8, corpus.Point, corpus.HostPin)
	}
	return append(round, corpus.Path)
}()

// ingestTally is what one ingest phase measured.
type ingestTally struct {
	ack    stats.Series // ms per POST /ingest
	events atomic.Int64 // events acknowledged
	wall   time.Duration
}

// huntTally is what one hunting phase measured.
type huntTally struct {
	rounds stats.Series // ms per round
	pages  stats.Series // ms per GET /hunt/next
	hunts  atomic.Int64 // completed POST /hunt
	rows   atomic.Int64 // rows received
	wall   time.Duration
}

// run is one benchmark run of one workload.
type run struct {
	workload string
	seed     int64
	seconds  int
	sz       sizes
	daemon   string // path of the threatraptord binary
	tmp      string // scratch directory, removed on success

	c    *corpus.Corpus
	d    *daemon
	cli  *client
	sink *sink
	nth  int // daemons started so far, for unique directory names

	expect           map[corpus.Class][]corpus.Row
	scanBag, joinBag map[string]int // row multisets of the scan and join classes
	// lo and hi bound what a hunt may see: batches [0, lo) are certainly
	// stored, batches [hi, …) certainly not yet sent.
	lo, hi atomic.Int64
	due    []time.Time // due time of each open-loop batch, by batch index

	setups                    []float64 // seconds per set-up
	windowIngest, coverIngest ingestTally
	window, cover             huntTally
	class                     map[corpus.Class]*stats.Series // ms per hunt, by class
	lateness                  stats.Series
	watchDelay                stats.Series
	planHits, planMisses      atomic.Int64 // window hunts only
	rssMB                     float64
	diskPerEvent              float64

	attempted, failed atomic.Int64
	mu                sync.Mutex
	failures          []string // first few failure messages
	invalid           []string // reasons the run measured the wrong load
}

func (r *run) fail(format string, args ...any) {
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

func (r *run) invalidate(format string, args ...any) {
	r.mu.Lock()
	if len(r.invalid) < 10 {
		r.invalid = append(r.invalid, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// op counts one attempted operation and reports whether it succeeded.
func (r *run) op(what string, err error) bool {
	r.attempted.Add(1)
	if err == nil {
		return true
	}
	r.fail("%s: %v", what, err)
	var se *statusError
	if errors.As(err, &se) && se.Shed() {
		r.invalidate("%s answered %d", what, se.Code)
	}
	return false
}

// check counts one answer check.
func (r *run) check(what string, err error) {
	r.attempted.Add(1)
	if err != nil {
		r.fail("%s: %v", what, err)
	}
}

// ---------------------------------------------------------------------------
// Set-up.

// bulkInWindow reports whether the bulk part is the measured window
// rather than the preload.
func (r *run) bulkInWindow() bool { return r.workload == "ingest_stream" }

func (r *run) startDaemon(dataDir string) error {
	r.nth++
	d, err := startDaemon(r.daemon, dataDir, filepath.Join(r.tmp, fmt.Sprintf("daemon-%d.log", r.nth)))
	if err != nil {
		return err
	}
	r.d = d
	if r.cli != nil {
		r.cli.close()
	}
	r.cli = newClient(d.addr)
	return nil
}

// setup generates the corpus, starts a daemon on an empty directory and
// preloads it, several times over; the last daemon serves the window.
func (r *run) setup() error {
	for i := 0; i < r.sz.setups; i++ {
		if r.d != nil {
			r.d.kill9()
			if err := os.RemoveAll(r.d.dataDir); err != nil {
				return err
			}
		}
		t0 := time.Now()
		spec, err := r.sz.Spec(r.workload, r.seed, r.seconds)
		if err != nil {
			return err
		}
		c, err := corpus.Build(spec)
		if err != nil {
			return err
		}
		r.c = c
		if err := r.startDaemon(filepath.Join(r.tmp, fmt.Sprintf("data-%d", i))); err != nil {
			return err
		}
		if !r.bulkInWindow() {
			r.ingestClosed(&ingestTally{}, 0, c.BulkBatches)
			if err := r.awaitEvents(c.BulkLines()); err != nil {
				return err
			}
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
	}
	return nil
}

// awaitEvents polls /stats until the daemon reports n stored events.
func (r *run) awaitEvents(n int) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := r.cli.stats()
		if err != nil {
			return fmt.Errorf("GET /stats: %w", err)
		}
		if st.Events == n {
			return nil
		}
		if st.Events > n || time.Now().After(deadline) {
			return fmt.Errorf("daemon holds %d events, want %d", st.Events, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// ---------------------------------------------------------------------------
// Ingest activities.

// ingestClosed ships batches [from, to) with two closed-loop collectors,
// each posting its next batch as soon as the previous one is acknowledged.
func (r *run) ingestClosed(t *ingestTally, from, to int) {
	var next atomic.Int64
	next.Store(int64(from))
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= to {
					return
				}
				b := r.c.Batches[i]
				s0 := time.Now()
				stored, err := r.cli.ingest(b.Body)
				if !r.op("POST /ingest", err) {
					continue
				}
				t.ack.AddSince(s0)
				if stored != b.Lines {
					r.fail("POST /ingest stored %d of %d events", stored, b.Lines)
				}
				t.events.Add(int64(stored))
			}
		}()
	}
	wg.Wait()
	t.wall += time.Since(t0)
	r.lo.Store(int64(to))
	r.hi.Store(int64(to))
}

// ingestOpen ships batches [from, to) from one open-loop collector: one
// batch per interval whatever the daemon does, acknowledgements timed
// from when each batch was due.
func (r *run) ingestOpen(t *ingestTally, from, to int) {
	o := stats.OpenLoop{Start: time.Now().Add(5 * time.Millisecond), Every: r.sz.OpenEvery}
	for i := from; i < to; i++ {
		r.due[i] = o.Due(i - from)
		time.Sleep(time.Until(r.due[i]))
		b := r.c.Batches[i]
		sent := time.Now()
		r.hi.Store(int64(i + 1))
		stored, err := r.cli.ingest(b.Body)
		done := time.Now()
		r.lo.Store(int64(i + 1))
		if !r.op("POST /ingest", err) {
			continue
		}
		if stored != b.Lines {
			r.fail("POST /ingest stored %d of %d events", stored, b.Lines)
		}
		t.events.Add(int64(stored))
		latency, lateness := o.Measure(i-from, sent, done)
		t.ack.Add(latency)
		r.lateness.Add(lateness)
	}
	t.wall += time.Since(o.Start)
}

// ---------------------------------------------------------------------------
// Hunt activities.

// huntSmall sends one fixed-text hunt and checks its whole answer.
func (r *run) huntSmall(t *huntTally, class corpus.Class, counted bool) {
	lo := int(r.lo.Load())
	t0 := time.Now()
	p, err := r.cli.hunt(corpus.Text(class), corpus.SmallPage)
	if !r.op("POST /hunt "+string(class), err) {
		return
	}
	r.class[class].AddSince(t0)
	hi := int(r.hi.Load())
	t.hunts.Add(1)
	t.rows.Add(int64(len(p.Rows)))
	if counted {
		r.planHits.Add(int64(p.Stats.PlanCacheHits))
		r.planMisses.Add(int64(p.Stats.PlanCacheMisses))
	}
	r.check("answer of "+string(class), corpus.CheckSet(r.expect[class], p.Rows, lo, hi))
	if p.CursorID != "" {
		r.fail("%s overflowed its %d-row page", class, corpus.SmallPage)
		_ = r.cli.closeCursor(p.CursorID) // already a failure; nothing more to report
	}
}

// huntLarge sends a scan or join hunt under a text the daemon has never
// seen, reads further pages, and closes the cursor. Every row must come
// from the class's expected multiset without exceeding its count there;
// with drain set it reads to the end and the total must equal the
// multiset's. It returns the first-page latency in ms (0 when the hunt
// failed).
func (r *run) huntLarge(t *huntTally, class corpus.Class, uniq, pages int, drain, counted bool) float64 {
	text, bag := r.c.ScanText(uniq), r.scanBag
	if class == corpus.Join {
		text, bag = r.c.JoinText(uniq), r.joinBag
	}
	used := map[string]int{}
	t0 := time.Now()
	p, err := r.cli.hunt(text, r.sz.PageRows)
	if !r.op("POST /hunt "+string(class), err) {
		return 0
	}
	first := stats.Millis(time.Since(t0))
	r.class[class].Add(first)
	t.hunts.Add(1)
	if counted {
		r.planHits.Add(int64(p.Stats.PlanCacheHits))
		r.planMisses.Add(int64(p.Stats.PlanCacheMisses))
	}
	total := 0
	for n := 0; ; n++ {
		t.rows.Add(int64(len(p.Rows)))
		total += len(p.Rows)
		r.check("rows of "+string(class), corpus.CheckBag(bag, used, p.Rows))
		if p.CursorID == "" {
			break
		}
		if !drain && n == pages {
			r.op("DELETE /hunt/cursor", r.cli.closeCursor(p.CursorID))
			return first
		}
		s0 := time.Now()
		cursor := p.CursorID
		p, err = r.cli.next(cursor, r.sz.PageRows)
		if !r.op("GET /hunt/next", err) {
			return first
		}
		t.pages.AddSince(s0)
	}
	// The cursor ran dry. A drain must have seen every row; on a static
	// store nothing else may end before the pages asked for.
	if want := corpus.Total(bag); drain && total != want {
		r.check("total of "+string(class), fmt.Errorf("drained %d rows, a pass over the records counts %d", total, want))
	} else if !drain && r.lo.Load() == r.hi.Load() {
		r.check("pages of "+string(class), fmt.Errorf("ended after %d rows, before %d pages", total, pages+1))
	} else {
		r.check("total of "+string(class), nil)
	}
	return first
}

// A stop function tells a client loop, before round n, whether to end.
type stop func(n int) bool

func untilTime(t time.Time) stop { return func(int) bool { return !time.Now().Before(t) } }
func forRounds(k int) stop       { return func(n int) bool { return n >= k } }

// analyst repeats a round of fixed-text hunts, optionally reading a few
// pages of a scan or a join, in turn, after every scanEvery-th round.
func (r *run) analyst(t *huntTally, round []corpus.Class, done stop, scanEvery int, counted bool) {
	for n := 0; !done(n); n++ {
		t0 := time.Now()
		for _, class := range round {
			r.huntSmall(t, class, counted)
		}
		t.rounds.AddSince(t0)
		if scanEvery > 0 && (n+1)%scanEvery == 0 {
			class := corpus.Scan
			if (n+1)/scanEvery%2 == 0 {
				class = corpus.Join
			}
			r.huntLarge(t, class, n, socScanPages, false, false)
		}
	}
}

// scanner alternates scan and join hunts; id keeps the texts of two
// scanners apart. In a window its round is the two first pages. In the
// coverage pass it records no rounds (there the analyst's define them)
// and its first pair reads to the end, to check the totals.
func (r *run) scanner(t *huntTally, id int, done stop, window bool) {
	for n := 0; !done(n); n++ {
		uniq := id*1_000_000 + n
		drain := !window && n == 0
		a := r.huntLarge(t, corpus.Scan, uniq, scanPages, drain, window)
		b := r.huntLarge(t, corpus.Join, uniq, scanPages, drain, window)
		if window && a > 0 && b > 0 {
			t.rounds.Add(a + b)
		}
	}
}

// timed runs fn and adds its duration to the tally's wall time.
func timed(t *huntTally, fn func()) {
	t0 := time.Now()
	fn()
	t.wall += time.Since(t0)
}

// both runs two generator goroutines and waits for them.
func both(a, b func()) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); a() }()
	go func() { defer wg.Done(); b() }()
	wg.Wait()
}

// ---------------------------------------------------------------------------
// Standing hunts.

func (r *run) registerWatches() {
	for _, class := range corpus.WatchClasses {
		r.op("POST /watch "+string(class), r.cli.watch(corpus.Text(class), r.sink.url(class)))
	}
}

// checkWatches verifies that the sink got every expected match exactly
// once and nothing else, and takes the delay of every match completed by
// an open-loop batch: from that batch's due time to the row's arrival.
func (r *run) checkWatches() {
	stored := int(r.lo.Load())
	want := 0
	for _, class := range corpus.WatchClasses {
		for _, row := range r.expect[class] {
			if row.After <= stored {
				want++
			}
		}
	}
	for deadline := time.Now().Add(5 * time.Second); r.sink.total() < want && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
	}
	for _, class := range corpus.WatchClasses {
		got := r.sink.arrivals(class)
		for _, row := range r.expect[class] {
			if row.After > stored {
				continue
			}
			r.attempted.Add(1)
			at := got[row.Key]
			delete(got, row.Key)
			if len(at) != 1 {
				r.fail("watch %s delivered a match %d times, want once", class, len(at))
				continue
			}
			if b := row.After - 1; b >= r.c.BulkBatches {
				r.watchDelay.Add(stats.Millis(at[0].Sub(r.due[b])))
			}
		}
		if len(got) > 0 {
			r.fail("watch %s delivered %d rows no injected instance explains", class, len(got))
		}
	}
}

// ---------------------------------------------------------------------------
// The run.

// prepare works out what the daemon must answer for the current corpus
// and clears the per-class latencies.
func (r *run) prepare() {
	c := r.c
	r.due = make([]time.Time, len(c.Batches))
	r.expect = map[corpus.Class][]corpus.Row{}
	for _, class := range []corpus.Class{corpus.Leak8, corpus.Crack8, corpus.Point, corpus.HostPin, corpus.Path, corpus.IOCLeak, corpus.IOCCrack} {
		r.expect[class] = c.Expect(class)
	}
	r.class = map[corpus.Class]*stats.Series{}
	for _, class := range corpus.Classes {
		r.class[class] = &stats.Series{}
	}
	// Row multisets for scan and join: over the static store where there
	// is one, over the whole corpus where hunts race ingest (every partial
	// answer is drawn from it).
	static := c.BulkBatches
	if r.workload == "soc_mixed" {
		static = len(c.Batches)
	}
	r.scanBag, r.joinBag = c.ExpectScan(static), c.ExpectJoin(static)
}

func (r *run) execute() error {
	if err := r.setup(); err != nil {
		return err
	}
	r.prepare()
	var err error
	if r.sink, err = startSink(); err != nil {
		return err
	}
	defer r.sink.close()

	if err := r.measureWindow(); err != nil {
		return err
	}
	if r.workload == "ingest_stream" {
		if err := r.crashAndRecover(); err != nil {
			return err
		}
	}
	r.coverage()
	r.d.kill9()
	return nil
}

// measureWindow runs the workload's own traffic mix, checks from the
// daemon's counters that it was what the workload claims, and takes the
// memory and disk figures.
func (r *run) measureWindow() error {
	c := r.c
	switch r.workload {
	case "soc_mixed":
		r.registerWatches()
		fallthrough
	case "hunt_repeat":
		// One untimed round fills the query and plan caches.
		r.analyst(&huntTally{}, repeatRound, forRounds(1), 0, false)
	}
	before, err := r.cli.stats()
	if err != nil {
		return fmt.Errorf("GET /stats: %w", err)
	}
	deadline := untilTime(time.Now().Add(time.Duration(r.seconds) * time.Second))
	switch r.workload {
	case "ingest_stream":
		r.ingestClosed(&r.windowIngest, 0, c.BulkBatches)
	case "hunt_repeat":
		timed(&r.window, func() {
			both(func() { r.analyst(&r.window, repeatRound, deadline, 0, true) },
				func() { r.analyst(&r.window, repeatRound, deadline, 0, true) })
		})
	case "hunt_scan_cold":
		timed(&r.window, func() {
			both(func() { r.scanner(&r.window, 1, deadline, true) },
				func() { r.scanner(&r.window, 2, deadline, true) })
		})
	case "soc_mixed":
		// The collector's schedule is the window; the analyst stops at
		// the first round boundary after the last batch.
		var shipped atomic.Bool
		timed(&r.window, func() {
			both(func() { r.ingestOpen(&r.windowIngest, c.BulkBatches, len(c.Batches)); shipped.Store(true) },
				func() {
					r.analyst(&r.window, repeatRound, func(int) bool { return shipped.Load() }, r.sz.socScanEvery, true)
				})
		})
	}
	after, err := r.cli.stats()
	if err != nil {
		return fmt.Errorf("GET /stats: %w", err)
	}
	r.claims(before, after)

	// Memory at the end of the window. Disk once the write-behind fsync
	// has certainly run and no segment flush is half way: a flush writes
	// the segment files before it drops the log they replace, so for a
	// moment the directory holds the data twice.
	if r.rssMB, err = r.d.peakRSSMB(); err != nil {
		return err
	}
	time.Sleep(quiesce)
	bytes, err := r.d.diskBytes()
	for settled := 0; err == nil && settled < 2; {
		time.Sleep(100 * time.Millisecond)
		prev := bytes
		if bytes, err = r.d.diskBytes(); bytes == prev {
			settled++
		} else {
			settled = 0
		}
	}
	if err != nil {
		return err
	}
	r.diskPerEvent = float64(bytes) / float64(after.Events)
	return nil
}

// crashAndRecover kills the daemon and restarts it on the same directory.
// Everything it acknowledged must be there: the event count, every
// injected instance, and the full scan and join answers. Then it swaps in
// a fresh daemon holding the hunt_* workloads' store for the coverage
// pass. On the recovered store, at eight times the size, the coverage
// cells would measure which phase the garbage collector is in.
func (r *run) crashAndRecover() error {
	dir := r.d.dataDir
	r.d.kill9()
	if err := r.startDaemon(dir); err != nil {
		return err
	}
	st, err := r.cli.stats()
	if err != nil {
		return fmt.Errorf("GET /stats: %w", err)
	}
	r.attempted.Add(1)
	if acked := int(r.windowIngest.events.Load()); st.Events != acked {
		r.fail("after kill -9 and restart the daemon holds %d events, %d were acknowledged", st.Events, acked)
	}
	for _, class := range corpus.Classes[:5] {
		r.huntSmall(&huntTally{}, class, false)
	}
	r.scanner(&huntTally{}, 4, forRounds(1), false)

	r.d.kill9()
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	spec, err := r.sz.Spec("hunt_repeat", r.seed, r.seconds)
	if err != nil {
		return err
	}
	if r.c, err = corpus.Build(spec); err != nil {
		return err
	}
	if err := r.startDaemon(dir); err != nil {
		return err
	}
	r.ingestClosed(&ingestTally{}, 0, r.c.BulkBatches)
	if err := r.awaitEvents(r.c.BulkLines()); err != nil {
		return err
	}
	r.prepare()
	return nil
}

// coverage runs what the window did not exercise. The driver's contract
// wants every metric from every workload, so the rest is measured here,
// at a fixed size, after the window's own numbers are taken.
func (r *run) coverage() {
	if r.window.hunts.Load() == 0 {
		timed(&r.cover, func() { r.analyst(&r.cover, repeatRound, forRounds(r.sz.coverRounds), 0, false) })
	} else if r.workload == "hunt_scan_cold" {
		// Rounds there are scan+join; the fixed classes still need their
		// per-class latencies and answer checks.
		r.analyst(&huntTally{}, repeatRound, forRounds(r.sz.coverRounds), 0, false)
	}
	if r.window.pages.N() == 0 {
		timed(&r.cover, func() { r.scanner(&r.cover, 3, forRounds(r.sz.coverScans+1), false) })
	} else if r.workload == "hunt_scan_cold" {
		// One full drain checks the totals the window's ten pages cannot.
		r.scanner(&huntTally{}, 3, forRounds(1), false)
	}
	if r.workload != "soc_mixed" {
		r.registerWatches()
		r.ingestOpen(&r.coverIngest, r.c.BulkBatches, len(r.c.Batches))
	}
	r.checkWatches()
	if p95 := r.lateness.P(95); p95 > 100 {
		r.invalidate("open-loop generator ran late: p95 %.1f ms", p95)
	}
}

// claims checks that the window stressed what the workload says it
// stresses, from the daemon's own counters.
func (r *run) claims(before, after daemonStats) {
	expect := func(ok bool, format string, args ...any) {
		r.attempted.Add(1)
		if !ok {
			r.fail("workload claim: "+format, args...)
		}
	}
	hunts := after.Hunts - before.Hunts
	ingests := after.Ingests - before.Ingests
	flushes := after.SegmentFlushes - before.SegmentFlushes
	hits, misses := r.planHits.Load(), r.planMisses.Load()
	// Segment flushes come every 2 s; shorter windows cannot hold three.
	longEnough := r.seconds >= 8
	switch r.workload {
	case "ingest_stream":
		expect(hunts == 0, "%d hunts ran inside the window", hunts)
		if longEnough {
			expect(flushes >= 3, "%d segment flushes inside the window, want 3", flushes)
		}
	case "hunt_repeat":
		expect(ingests == 0, "%d ingests ran inside the window", ingests)
		expect(misses == 0 && hits > 0, "plan cache: %d hits, %d misses; want every lookup to hit", hits, misses)
		expect(after.QueryCacheMisses == before.QueryCacheMisses, "query cache missed %d times", after.QueryCacheMisses-before.QueryCacheMisses)
	case "hunt_scan_cold":
		expect(ingests == 0, "%d ingests ran inside the window", ingests)
		expect(hits == 0 && misses > 0, "plan cache: %d hits, %d misses; want every lookup to miss", hits, misses)
		expect(after.QueryCacheMisses-before.QueryCacheMisses >= hunts, "query cache missed %d times in %d hunts", after.QueryCacheMisses-before.QueryCacheMisses, hunts)
	case "soc_mixed":
		if longEnough {
			expect(flushes >= 3, "%d segment flushes inside the window, want 3", flushes)
		}
		expect(after.WatchesActive == len(corpus.WatchClasses) && after.WebhookFailures == 0,
			"%d standing hunts active, %d webhook failures", after.WatchesActive, after.WebhookFailures)
	}
}
