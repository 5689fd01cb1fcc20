// Package stats holds the benchmark's arithmetic: percentiles and the
// rule for which percentile a sample supports, open-loop latency and
// generator-lateness accounting, and the comparison of two sets of runs
// against the bounds the benchmark fixes.
package stats

import (
	"math"
	"sort"
	"sync"
	"time"
)

// Series collects samples from concurrent clients.
type Series struct {
	mu sync.Mutex
	xs []float64
}

// Add records one sample.
func (s *Series) Add(v float64) {
	s.mu.Lock()
	s.xs = append(s.xs, v)
	s.mu.Unlock()
}

// AddSince records the milliseconds elapsed since t0.
func (s *Series) AddSince(t0 time.Time) { s.Add(Millis(time.Since(t0))) }

// Millis converts a duration to fractional milliseconds.
func Millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// N is the sample count.
func (s *Series) N() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.xs)
}

// Sorted returns a sorted copy of the samples.
func (s *Series) Sorted() []float64 {
	s.mu.Lock()
	out := append([]float64(nil), s.xs...)
	s.mu.Unlock()
	sort.Float64s(out)
	return out
}

// P is the p-th percentile (0 < p < 100) of the samples, NaN when empty.
func (s *Series) P(p float64) float64 { return Percentile(s.Sorted(), p) }

// Percentile interpolates the p-th percentile of sorted samples.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Median is the 50th percentile of unsorted samples.
func Median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Percentile(s, 50)
}

// ladder lists the percentiles a report may quote, lowest first.
var ladder = []float64{50, 75, 90, 95, 99, 99.9}

// MinBeyond is how many samples must lie beyond a percentile for it to
// be quoted.
const MinBeyond = 10

// Supported is the highest percentile of the ladder that n samples
// support: at least MinBeyond samples lie beyond it. Below 20 samples
// not even the median qualifies and Supported returns 0.
func Supported(n int) float64 {
	best := 0.0
	for _, p := range ladder {
		if float64(n)*(100-p) >= MinBeyond*100-1e-6 {
			best = p
		}
	}
	return best
}

// Supports reports whether n samples support quoting percentile p.
func Supports(n int, p float64) bool { return Supported(n) >= p }

// Quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method),
// so a spread worked out here matches one worked out there.
func Quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(3)
}

// Spread is the distance between the quartiles as a share of the median.
func Spread(xs []float64) float64 {
	q1, q3 := Quartiles(xs)
	return (q3 - q1) / math.Abs(Median(xs))
}

// OpenLoop is the schedule of a generator that sends whatever the server
// does: one request every interval from a start time.
type OpenLoop struct {
	Start time.Time
	Every time.Duration
}

// Due is when request i (from 0) should be sent.
func (o OpenLoop) Due(i int) time.Time { return o.Start.Add(time.Duration(i) * o.Every) }

// Measure accounts for request i, sent and completed at the given times.
// Latency runs from when the request was due, so a stall charges every
// request queued behind it; lateness is how long after its due time the
// generator managed to send. Both are in ms.
func (o OpenLoop) Measure(i int, sent, done time.Time) (latency, lateness float64) {
	due := o.Due(i)
	return Millis(done.Sub(due)), Millis(max(sent.Sub(due), 0))
}
