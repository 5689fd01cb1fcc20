package corpus

import (
	"fmt"
	"time"
)

// Workloads names the four traffic mixes, in reporting order.
var Workloads = []string{"ingest_stream", "hunt_repeat", "hunt_scan_cold", "soc_mixed"}

// Sizing fixes how large each workload's corpus is. Both halves of the
// benchmark size their inputs from it, so the traced run replays exactly
// what the load driver ships.
type Sizing struct {
	HuntBulk     int // events preloaded before a hunt_* window
	SocBulk      int // events preloaded before the soc_mixed window
	IngestPerSec int // ingest_stream ships this many events per second of window length
	OpenBatch    int // lines per open-loop batch
	OpenEvery    time.Duration
	CoverBatches int // open-loop batches of the coverage pass
	MaxInstances int // cap on injected instances, so attack hunts stay on one page
	PageRows     int // rows per page of the scan and join classes
}

// Full is the measuring size; Smoke keeps every code path alive on a few
// thousand events.
var (
	Full = Sizing{HuntBulk: 60000, SocBulk: 40000, IngestPerSec: 32000,
		OpenBatch: 1000, OpenEvery: 100 * time.Millisecond, CoverBatches: 20, MaxInstances: 160, PageRows: 1000}
	Smoke = Sizing{HuntBulk: 3000, SocBulk: 3000, IngestPerSec: 5000,
		OpenBatch: 200, OpenEvery: 100 * time.Millisecond, CoverBatches: 4, MaxInstances: 160, PageRows: 50}
)

// Spec sizes the corpus of one workload: a bulk part shipped closed-loop
// (the preload, or ingest_stream's whole window) and a stream part
// shipped open-loop (the soc_mixed window, or the coverage pass of the
// other workloads). Event counts scale with the window length where a
// workload is defined by a size rather than a time, so two commits given
// the same arguments store the same data.
func (z Sizing) Spec(workload string, seed int64, seconds int) (Spec, error) {
	s := Spec{Seed: seed, StreamBatch: z.OpenBatch}
	streamBatches := z.CoverBatches
	switch workload {
	case "ingest_stream":
		s.Bulk = z.IngestPerSec * seconds
	case "hunt_repeat", "hunt_scan_cold":
		s.Bulk = z.HuntBulk
	case "soc_mixed":
		s.Bulk = z.SocBulk
		streamBatches = int(time.Duration(seconds) * time.Second / z.OpenEvery)
	default:
		return s, fmt.Errorf("corpus: unknown workload %q", workload)
	}
	s.Stream = streamBatches * z.OpenBatch
	s.Instances = min(streamBatches, z.MaxInstances)
	return s, nil
}
