// Package corpus builds the benchmark's inputs from a seed: a multi-host
// audit log sliced into ingest batches, the TBQL texts the workloads
// send, and the answers the daemon must give. It is the only bench
// package that imports the program (the generator and the log line
// format), so the load driver's numbers survive store and executor
// refactors.
//
// The same Spec always yields byte-identical batches, texts and
// expectations; expectations come from passes over the generated records
// and the generator's ground truth, never from TBQL or the stores.
package corpus

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/audit/gen"
)

// BusyHosts is the number of hosts producing benign background traffic.
// Each also carries one instance of both scripted attacks, early enough
// to land in the bulk part.
const BusyHosts = 4

// BulkBatchLines is the batch size of the bulk part, which closed-loop
// collectors ship.
const BulkBatchLines = 2000

// simPer1000 is the simulated time 1000 corpus lines cover. It keeps one
// scripted attack (at most 9.5 s) shorter than one open-loop batch.
const simPer1000 = 20 * time.Second

var corpusStart = time.Date(2021, 2, 25, 9, 0, 0, 0, time.UTC)

// Spec sizes a corpus.
type Spec struct {
	Seed int64
	// Bulk and Stream are the benign events generated before and after
	// the boundary between the two parts; attack records come on top. A
	// workload ships the bulk closed-loop (as its preload, or as its
	// whole window) and the stream open-loop.
	Bulk   int
	Stream int
	// StreamBatch is the lines per batch of the stream part.
	StreamBatch int
	// Instances is how many extra attack instances complete inside the
	// stream, alternating data-leakage and password-crack, each on a host
	// of its own so instances never join with one another.
	Instances int
}

// Batch is one POST /ingest body.
type Batch struct {
	Body  []byte
	Lines int
}

// Instance is one injected attack with its ground-truth steps.
type Instance struct {
	Kind  gen.AttackKind
	Host  string
	Steps []audit.Record
	// StepBatch[i] is the index in Corpus.Batches of the batch carrying
	// Steps[i]; the last entry is where the instance completes.
	StepBatch []int
}

// DoneBatch is the batch that carries the instance's last event.
func (in *Instance) DoneBatch() int { return in.StepBatch[len(in.StepBatch)-1] }

// Corpus is a generated input set.
type Corpus struct {
	Spec    Spec
	Records []audit.Record // every host, merged by start time
	Batches []Batch        // bulk batches, then stream batches
	// BulkBatches is how many leading batches form the bulk part.
	BulkBatches int
	// batchEnd[i] is one past the last record index of batch i.
	batchEnd  []int
	Instances []Instance
	StartNS   int64
	EndNS     int64
}

// BulkLines is the number of records in the bulk batches.
func (c *Corpus) BulkLines() int { return c.LinesThrough(c.BulkBatches) }

// LinesThrough is the number of records in the first n batches.
func (c *Corpus) LinesThrough(n int) int {
	if n <= 0 {
		return 0
	}
	return c.batchEnd[n-1]
}

// Build generates the corpus for spec.
func Build(spec Spec) (*Corpus, error) {
	if spec.Bulk < 0 || spec.Stream < 0 || spec.Bulk+spec.Stream == 0 {
		return nil, fmt.Errorf("corpus: need events (bulk %d, stream %d)", spec.Bulk, spec.Stream)
	}
	if spec.Stream > 0 && spec.StreamBatch <= 0 {
		return nil, fmt.Errorf("corpus: stream of %d events needs a batch size", spec.Stream)
	}
	if spec.Instances > 0 && spec.Stream == 0 {
		return nil, fmt.Errorf("corpus: %d instances need a stream to complete in", spec.Instances)
	}
	total := spec.Bulk + spec.Stream
	span := time.Duration((total+999)/1000) * simPer1000
	boundary := time.Duration(float64(span) * float64(spec.Bulk) / float64(total))
	// The busy hosts' own attacks sit inside the bulk part when there is
	// one, else inside the stream.
	base := boundary
	if spec.Bulk == 0 {
		base = span
	}

	workloads := make([]*gen.Workload, BusyHosts+spec.Instances)
	var wg sync.WaitGroup
	for h := 0; h < BusyHosts; h++ {
		h := h
		wg.Add(1)
		go func() {
			defer wg.Done()
			workloads[h] = gen.Generate(gen.Config{
				Seed:         spec.Seed*1000 + int64(h),
				Host:         fmt.Sprintf("host%d", h+1),
				Start:        corpusStart,
				Duration:     span,
				BenignEvents: total / BusyHosts,
				Attacks: []gen.Attack{
					{Kind: gen.AttackDataLeakage, At: base * 3 / 10},
					{Kind: gen.AttackPasswordCrack, At: base * 6 / 10},
				},
			})
		}()
	}
	if spec.Instances > 0 {
		streamSpan := span - boundary
		for i := 0; i < spec.Instances; i++ {
			kind := gen.AttackDataLeakage
			if i%2 == 1 {
				kind = gen.AttackPasswordCrack
			}
			// Spread starts evenly; an instance ends at most 9.5 s later,
			// so clamp the start to keep the last one inside the span.
			at := boundary + time.Duration(float64(streamSpan)*(float64(i)+0.15)/float64(spec.Instances))
			if latest := span - 10*time.Second; at > latest {
				at = latest
			}
			workloads[BusyHosts+i] = gen.Generate(gen.Config{
				Seed:     spec.Seed*1000 + int64(BusyHosts+i),
				Host:     fmt.Sprintf("ws%03d", i),
				Start:    corpusStart,
				Duration: span,
				Attacks:  []gen.Attack{{Kind: kind, At: at}},
			})
		}
	}
	wg.Wait()

	c := &Corpus{Spec: spec, StartNS: corpusStart.UnixNano()}
	c.Records = mergeByTime(workloads)
	c.EndNS = c.Records[len(c.Records)-1].EndNS

	// The bulk part is every record that starts before the boundary.
	cut := corpusStart.Add(boundary).UnixNano()
	bulkLines := sort.Search(len(c.Records), func(i int) bool { return c.Records[i].StartNS >= cut })
	if spec.Bulk == 0 {
		bulkLines = 0
	}
	c.slice(0, bulkLines, BulkBatchLines)
	c.BulkBatches = len(c.Batches)
	if len(c.Records) > bulkLines {
		c.slice(bulkLines, len(c.Records), spec.StreamBatch)
	}

	if err := c.locateInstances(workloads); err != nil {
		return nil, err
	}
	return c, nil
}

// mergeByTime merges per-host record slices (each already sorted by
// start time) into one slice ordered by (start time, host order).
func mergeByTime(ws []*gen.Workload) []audit.Record {
	n := 0
	for _, w := range ws {
		n += len(w.Records)
	}
	// The instance hosts are tiny; fold them into one stream so the merge
	// below compares a handful of heads per record.
	streams := make([][]audit.Record, 0, BusyHosts+1)
	for _, w := range ws[:BusyHosts] {
		streams = append(streams, w.Records)
	}
	var small []audit.Record
	for _, w := range ws[BusyHosts:] {
		small = append(small, w.Records...)
	}
	sort.SliceStable(small, func(i, j int) bool { return small[i].StartNS < small[j].StartNS })
	streams = append(streams, small)

	out := make([]audit.Record, 0, n)
	heads := make([]int, len(streams))
	for len(out) < n {
		best := -1
		for s, h := range heads {
			if h == len(streams[s]) {
				continue
			}
			if best < 0 || streams[s][h].StartNS < streams[best][heads[best]].StartNS {
				best = s
			}
		}
		out = append(out, streams[best][heads[best]])
		heads[best]++
	}
	return out
}

// slice cuts records [lo, hi) into batches of about size lines each,
// spreading the remainder so no batch is a stub.
func (c *Corpus) slice(lo, hi, size int) {
	n := hi - lo
	if n == 0 {
		return
	}
	batches := (n + size/2) / size
	if batches == 0 {
		batches = 1
	}
	for b := 0; b < batches; b++ {
		from, to := lo+n*b/batches, lo+n*(b+1)/batches
		body := make([]byte, 0, (to-from)*112)
		for _, r := range c.Records[from:to] {
			body = append(body, audit.FormatRecord(r)...)
			body = append(body, '\n')
		}
		c.Batches = append(c.Batches, Batch{Body: body, Lines: to - from})
		c.batchEnd = append(c.batchEnd, to)
	}
}

// batchOf maps a record index to its batch index.
func (c *Corpus) batchOf(line int) int {
	return sort.SearchInts(c.batchEnd, line+1)
}

// locateInstances groups each host's ground truth into instances and
// finds the batch of every step.
func (c *Corpus) locateInstances(ws []*gen.Workload) error {
	want := make(map[audit.Record]int) // truth record -> merged index
	for _, w := range ws {
		for _, st := range w.Truth {
			want[st.Record] = -1
		}
	}
	for i, r := range c.Records {
		if at, ok := want[r]; ok {
			if at >= 0 {
				return fmt.Errorf("corpus: ground-truth record appears twice: %s", audit.FormatRecord(r))
			}
			want[r] = i
		}
	}
	for _, w := range ws {
		// One instance per attack kind per host, steps already in order.
		byKind := map[gen.AttackKind]*Instance{}
		var order []gen.AttackKind
		for _, st := range w.Truth {
			in := byKind[st.Attack]
			if in == nil {
				in = &Instance{Kind: st.Attack, Host: st.Record.Host}
				byKind[st.Attack] = in
				order = append(order, st.Attack)
			}
			line := want[st.Record]
			if line < 0 {
				return fmt.Errorf("corpus: ground-truth record missing from the merged log: %s", audit.FormatRecord(st.Record))
			}
			in.Steps = append(in.Steps, st.Record)
			in.StepBatch = append(in.StepBatch, c.batchOf(line))
		}
		for _, k := range order {
			c.Instances = append(c.Instances, *byKind[k])
		}
	}
	for i := range c.Instances {
		in := &c.Instances[i]
		busy := i < 2*BusyHosts
		switch {
		case busy && c.Spec.Bulk > 0 && in.DoneBatch() >= c.BulkBatches:
			return fmt.Errorf("corpus: %s on %s completes in batch %d, after the bulk part", in.Kind, in.Host, in.DoneBatch())
		case !busy && in.StepBatch[0] < c.BulkBatches:
			return fmt.Errorf("corpus: %s on %s starts in batch %d, inside the bulk part", in.Kind, in.Host, in.StepBatch[0])
		}
	}
	return nil
}
