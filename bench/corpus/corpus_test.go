package corpus

import (
	"bytes"
	"reflect"
	"testing"
)

var testSpec = Spec{Seed: 7, Bulk: 3000, Stream: 4000, StreamBatch: 500, Instances: 6}

// fingerprint gathers everything a workload consumes from a corpus.
func fingerprint(t *testing.T, spec Spec) (batches [][]byte, texts []string, expect map[Class][]Row, scan, join map[string]int) {
	t.Helper()
	c, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range c.Batches {
		batches = append(batches, b.Body)
	}
	expect = map[Class][]Row{}
	for _, cl := range []Class{Leak8, Crack8, Point, HostPin, Path, IOCLeak, IOCCrack} {
		texts = append(texts, Text(cl))
		expect[cl] = c.Expect(cl)
	}
	texts = append(texts, c.ScanText(3), c.JoinText(3))
	return batches, texts, expect, c.ExpectScan(len(c.Batches)), c.ExpectJoin(len(c.Batches))
}

func TestSameSeedSameCorpus(t *testing.T) {
	b1, t1, e1, s1, j1 := fingerprint(t, testSpec)
	b2, t2, e2, s2, j2 := fingerprint(t, testSpec)
	if len(b1) != len(b2) {
		t.Fatalf("batch counts differ: %d vs %d", len(b1), len(b2))
	}
	for i := range b1 {
		if !bytes.Equal(b1[i], b2[i]) {
			t.Fatalf("batch %d differs between two builds of one seed", i)
		}
	}
	if !reflect.DeepEqual(t1, t2) || !reflect.DeepEqual(e1, e2) || !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(j1, j2) {
		t.Fatal("texts or expectations differ between two builds of one seed")
	}

	other := testSpec
	other.Seed = 8
	b3, _, e3, s3, _ := fingerprint(t, other)
	same := len(b1) == len(b3)
	for i := 0; same && i < len(b1); i++ {
		same = bytes.Equal(b1[i], b3[i])
	}
	if same || reflect.DeepEqual(e1, e3) || reflect.DeepEqual(s1, s3) {
		t.Fatal("a different seed gave the same batches or expectations")
	}
}

func TestCorpusShape(t *testing.T) {
	c, err := Build(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, b := range c.Batches {
		if got := bytes.Count(b.Body, []byte("\n")); got != b.Lines {
			t.Fatalf("batch claims %d lines, body has %d", b.Lines, got)
		}
		lines += b.Lines
	}
	if lines != len(c.Records) {
		t.Fatalf("batches hold %d lines, corpus has %d records", lines, len(c.Records))
	}
	for i := 1; i < len(c.Records); i++ {
		if c.Records[i].StartNS < c.Records[i-1].StartNS {
			t.Fatalf("record %d starts before record %d", i, i-1)
		}
	}
	if want := 2*BusyHosts + testSpec.Instances; len(c.Instances) != want {
		t.Fatalf("got %d instances, want %d", len(c.Instances), want)
	}
	// Every busy host carries both attacks inside the bulk part; every
	// injected instance completes inside the stream, on its own host.
	hosts := map[string]bool{}
	for i, in := range c.Instances {
		if i < 2*BusyHosts {
			if in.DoneBatch() >= c.BulkBatches {
				t.Errorf("%s on %s completes in batch %d, the bulk part is %d batches", in.Kind, in.Host, in.DoneBatch(), c.BulkBatches)
			}
			continue
		}
		if in.StepBatch[0] < c.BulkBatches {
			t.Errorf("%s on %s starts in batch %d, inside the bulk part", in.Kind, in.Host, in.StepBatch[0])
		}
		if hosts[in.Host] {
			t.Errorf("host %s carries two injected instances", in.Host)
		}
		hosts[in.Host] = true
	}
	// One row per instance for the attack classes; the pinned class is a
	// strict subset of the point class.
	if got, want := len(c.Expect(Leak8)), BusyHosts+testSpec.Instances/2; got != want {
		t.Errorf("leak8 expects %d rows, want %d", got, want)
	}
	if got, want := len(c.Expect(Crack8)), BusyHosts+testSpec.Instances/2; got != want {
		t.Errorf("crack8 expects %d rows, want %d", got, want)
	}
	if got := len(c.Expect(Path)); got != len(c.Expect(Leak8)) {
		t.Errorf("path expects %d rows, want one per leak instance (%d)", got, len(c.Expect(Leak8)))
	}
	if p, h := len(c.Expect(Point)), len(c.Expect(HostPin)); h != 1 || p <= h {
		t.Errorf("point expects %d rows and hostpin %d", p, h)
	}
	if Total(c.ExpectScan(c.BulkBatches)) == 0 || Total(c.ExpectJoin(c.BulkBatches)) == 0 {
		t.Error("scan or join expects no rows over the bulk part")
	}
}

func TestCheckSetAndBag(t *testing.T) {
	want := []Row{{RowKey([]string{"a", "1"}), 1}, {RowKey([]string{"b", "2"}), 3}}
	if err := CheckSet(want, [][]string{{"a", "1"}}, 2, 2); err != nil {
		t.Errorf("exact answer rejected: %v", err)
	}
	if err := CheckSet(want, [][]string{{"a", "1"}, {"b", "2"}}, 2, 3); err != nil {
		t.Errorf("answer within bounds rejected: %v", err)
	}
	for name, got := range map[string][][]string{
		"missing":   {},
		"early":     {{"a", "1"}, {"b", "2"}},
		"duplicate": {{"a", "1"}, {"a", "1"}},
		"unknown":   {{"a", "1"}, {"c", "3"}},
	} {
		if err := CheckSet(want, got, 2, 2); err == nil {
			t.Errorf("%s row accepted", name)
		}
	}
	bag := map[string]int{RowKey([]string{"x"}): 2}
	used := map[string]int{}
	if err := CheckBag(bag, used, [][]string{{"x"}, {"x"}}); err != nil {
		t.Errorf("rows within the multiset rejected: %v", err)
	}
	if err := CheckBag(bag, used, [][]string{{"x"}}); err == nil {
		t.Error("a third copy of a row expected twice was accepted")
	}
	if err := CheckBag(bag, map[string]int{}, [][]string{{"y"}}); err == nil {
		t.Error("a row outside the multiset was accepted")
	}
}
