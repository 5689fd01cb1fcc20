package stats

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Def defines one metric: its unit, which direction is better, and (for
// end-to-end metrics) the share of the baseline's median by which it may
// worsen before a change counts as a regression.
type Def struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
}

// Value is one measured metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what one benchmark run reports on its last output line.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// Run is one line of a saved set of runs.
type Run struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Result   Result `json:"result"`
}

// ReadRuns loads a set of runs saved one JSON object per line.
func ReadRuns(path string) ([]Run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []Run
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r Run
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// Verdict classifies one metric on one workload across two sets of runs.
type Verdict string

const (
	// Within: the second median is no worse than the first by more than
	// the bound, and both sets are steadier than the bound.
	Within Verdict = "within bound"
	// Regressed: steadier than the bound, and worse by more than it.
	Regressed Verdict = "REGRESSED"
	// Unresolved: a set's own spread exceeds the bound (or has too few
	// runs to have a spread), so the sets cannot be told apart.
	Unresolved Verdict = "unresolved"
)

// Comparison is one row of a compare report.
type Comparison struct {
	Workload, Metric string
	Def              Def
	MedianA, MedianB float64
	SpreadA, SpreadB float64
	Worse            float64 // share of MedianA by which B is worse (negative: better)
	Verdict          Verdict
}

// Compare judges set b against baseline a, per workload and metric.
func Compare(defs []Def, a, b []Run) []Comparison {
	group := func(runs []Run) map[string]map[string][]float64 {
		g := map[string]map[string][]float64{}
		for _, r := range runs {
			if g[r.Workload] == nil {
				g[r.Workload] = map[string][]float64{}
			}
			for name, v := range r.Result.Metrics {
				g[r.Workload][name] = append(g[r.Workload][name], v.Value)
			}
		}
		return g
	}
	ga, gb := group(a), group(b)
	var workloads []string
	for w := range ga {
		if gb[w] != nil {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	var out []Comparison
	for _, w := range workloads {
		for _, d := range defs {
			xa, xb := ga[w][d.Name], gb[w][d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			c := Comparison{Workload: w, Metric: d.Name, Def: d, MedianA: Median(xa), MedianB: Median(xb)}
			c.Worse = (c.MedianB - c.MedianA) / c.MedianA
			if d.Better == "higher" {
				c.Worse = -c.Worse
			}
			if len(xa) < 2 || len(xb) < 2 {
				c.Verdict = Unresolved
			} else {
				c.SpreadA, c.SpreadB = Spread(xa), Spread(xb)
				switch {
				case c.SpreadA > d.Bound || c.SpreadB > d.Bound:
					c.Verdict = Unresolved
				case c.Worse > d.Bound:
					c.Verdict = Regressed
				default:
					c.Verdict = Within
				}
			}
			out = append(out, c)
		}
	}
	return out
}

// PrintComparison writes the report and returns how many rows regressed.
func PrintComparison(w io.Writer, rows []Comparison) (regressed int) {
	fmt.Fprintf(w, "%-15s %-22s %12s %12s %8s %8s %8s %7s  %s\n",
		"workload", "metric", "median A", "median B", "worse", "spread A", "spread B", "bound", "verdict")
	for _, c := range rows {
		fmt.Fprintf(w, "%-15s %-22s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%% %6.0f%%  %s\n",
			c.Workload, c.Metric, c.MedianA, c.MedianB, 100*c.Worse, 100*c.SpreadA, 100*c.SpreadB, 100*c.Def.Bound, c.Verdict)
		if c.Verdict == Regressed {
			regressed++
		}
	}
	return regressed
}
