package stats

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := Supported(c.n); got != c.want {
			t.Errorf("Supported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if Supports(199, 95) || !Supports(200, 95) {
		t.Error("p95 must need exactly 200 samples")
	}
}

func TestPercentile(t *testing.T) {
	var s Series
	for i := 1; i <= 101; i++ {
		s.Add(float64(i))
	}
	if got := s.P(50); got != 51 {
		t.Errorf("median of 1..101 = %v, want 51", got)
	}
	if got := s.P(95); got != 96 {
		t.Errorf("p95 of 1..101 = %v, want 96", got)
	}
	if s.N() != 101 {
		t.Errorf("N = %d", s.N())
	}
	if !math.IsNaN((&Series{}).P(50)) {
		t.Error("empty series must give NaN")
	}
}

// The values are what Python prints for
// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := Quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q3 != 5.25 {
		t.Errorf("quartiles = %v, %v; Python gives 1.75, 5.25", q1, q3)
	}
	if got := Spread([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}); got != 1 {
		t.Errorf("spread = %v, want (5.25-1.75)/3.5 = 1", got)
	}
}

// A server stall delays the requests queued behind it: timed from their
// due times they are slow, although each was answered at once when sent.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	start := time.Unix(1000, 0)
	o := OpenLoop{Start: start, Every: 100 * time.Millisecond}
	at := func(ms int) time.Time { return start.Add(time.Duration(ms) * time.Millisecond) }
	for i, c := range []struct{ sent, done, latency, lateness int }{
		{0, 10, 10, 0},       // on time, 10 ms
		{100, 450, 350, 0},   // stalls 350 ms
		{450, 460, 260, 250}, // due at 200, sent 250 ms late
		{460, 470, 170, 160}, // due at 300
		{470, 480, 80, 70},   // due at 400
	} {
		latency, lateness := o.Measure(i, at(c.sent), at(c.done))
		if latency != float64(c.latency) || lateness != float64(c.lateness) {
			t.Errorf("request %d: latency %v ms, lateness %v ms; want %d and %d", i, latency, lateness, c.latency, c.lateness)
		}
	}
	// A request sent early is not late.
	if _, lateness := o.Measure(1, at(90), at(95)); lateness != 0 {
		t.Errorf("early request counted %v ms late", lateness)
	}
}

func runs(workload, metric string, vals ...float64) []Run {
	var out []Run
	for i, v := range vals {
		out = append(out, Run{Workload: workload, Seed: int64(i), Result: Result{Metrics: map[string]Value{metric: {v, "ms"}}}})
	}
	return out
}

func TestCompare(t *testing.T) {
	defs := []Def{{Name: "lat", Unit: "ms", Better: "lower", Bound: 0.10}, {Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.10}}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}

	verdict := func(metric string, a, b []float64) Verdict {
		rows := Compare(defs, runs("w", metric, a...), runs("w", metric, b...))
		if len(rows) != 1 {
			t.Fatalf("got %d rows", len(rows))
		}
		return rows[0].Verdict
	}
	if v := verdict("lat", steady, scale(1.05)); v != Within {
		t.Errorf("5%% slower under a 10%% bound: %s", v)
	}
	if v := verdict("lat", steady, scale(1.2)); v != Regressed {
		t.Errorf("20%% slower under a 10%% bound: %s", v)
	}
	if v := verdict("lat", steady, scale(0.5)); v != Within {
		t.Errorf("faster must not regress: %s", v)
	}
	if v := verdict("rate", steady, scale(0.8)); v != Regressed {
		t.Errorf("20%% less throughput under a 10%% bound: %s", v)
	}
	if v := verdict("rate", steady, scale(1.3)); v != Within {
		t.Errorf("more throughput must not regress: %s", v)
	}
	if v := verdict("lat", steady, noisy); v != Unresolved {
		t.Errorf("a set noisier than the bound: %s", v)
	}
	if v := verdict("lat", steady[:1], steady); v != Unresolved {
		t.Errorf("a single run has no spread: %s", v)
	}

	var b strings.Builder
	rows := Compare(defs, runs("w", "lat", steady...), runs("w", "lat", scale(1.2)...))
	if n := PrintComparison(&b, rows); n != 1 || !strings.Contains(b.String(), "REGRESSED") {
		t.Errorf("report: %d regressed\n%s", n, b.String())
	}
}
