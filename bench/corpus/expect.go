package corpus

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/audit"
	"repro/internal/audit/gen"
)

// Row is one expected result row and the number of leading batches that
// must be stored before the daemon can return it.
type Row struct {
	Key   string // RowKey of the fields
	After int    // visible once batches [0, After) are stored
}

// RowKey joins result fields into a map key.
func RowKey(fields []string) string { return strings.Join(fields, "\x1f") }

func key(host string, pids ...int) string {
	f := []string{host}
	for _, p := range pids {
		f = append(f, strconv.Itoa(p))
	}
	return RowKey(f)
}

type procID struct {
	host string
	pid  int
	exe  string
}

// Expect returns the rows a small-answer class must produce, from the
// generator's ground truth (attack chains) or a pass over the records
// (single-pattern classes and the path class).
func (c *Corpus) Expect(class Class) []Row {
	switch class {
	case Leak8:
		// p1 is tar (step 1), p4 is curl (step 8, the last event).
		return c.fromTruth(gen.AttackDataLeakage, 0, 7)
	case Crack8:
		// p1 is wget (step 1), p3 is the cracker (step 8); the chain ends
		// with the cracker's connection to C2 (step 10).
		return c.fromTruth(gen.AttackPasswordCrack, 0, 7)
	case Point, HostPin:
		var rows []Row
		c.eachTarPasswdRead(func(line int, r audit.Record) {
			if class == HostPin && r.Host != PinnedHost {
				return
			}
			rows = append(rows, Row{key(r.Host, r.PID), c.batchOf(line) + 1})
		})
		return dedup(rows)
	case IOCLeak, IOCCrack:
		exe := "/usr/bin/curl"
		if class == IOCCrack {
			exe = "/tmp/cracker"
		}
		var rows []Row
		for line, r := range c.Records {
			if r.Op == audit.OpConnect && strings.Contains(r.Exe, exe) && strings.Contains(r.ObjSpec, "->"+gen.C2IP+":") {
				rows = append(rows, Row{key(r.Host, r.PID), c.batchOf(line) + 1})
			}
		}
		return dedup(rows)
	case Path:
		return c.expectPath()
	}
	panic("corpus: no small-answer expectation for class " + string(class))
}

func (c *Corpus) fromTruth(kind gen.AttackKind, stepA, stepB int) []Row {
	var rows []Row
	for i := range c.Instances {
		in := &c.Instances[i]
		if in.Kind == kind {
			rows = append(rows, Row{key(in.Host, in.Steps[stepA].PID, in.Steps[stepB].PID), in.DoneBatch() + 1})
		}
	}
	return rows
}

func (c *Corpus) eachTarPasswdRead(fn func(line int, r audit.Record)) {
	for line, r := range c.Records {
		if r.Op == audit.OpRead && r.ObjType == audit.EntityFile &&
			strings.Contains(r.Exe, "/bin/tar") && strings.Contains(r.ObjSpec, "/etc/passwd") {
			fn(line, r)
		}
	}
}

// dedup keeps the earliest occurrence of each key (distinct results).
func dedup(rows []Row) []Row {
	seen := make(map[string]bool, len(rows))
	out := rows[:0]
	for _, r := range rows {
		if !seen[r.Key] {
			seen[r.Key] = true
			out = append(out, r)
		}
	}
	return out
}

// expectPath answers the path class: apache2 processes from which at most
// three process-to-process events lead to a process that reads a file
// named like /etc/passwd.
func (c *Corpus) expectPath() []Row {
	type edge struct {
		to   procID
		line int
	}
	children := map[procID][]edge{}
	reads := map[procID]int{} // first qualifying read
	var sources []procID
	seenSrc := map[procID]bool{}
	for line, r := range c.Records {
		p := procID{r.Host, r.PID, r.Exe}
		if strings.Contains(r.Exe, "/usr/sbin/apache2") && !seenSrc[p] {
			seenSrc[p] = true
			sources = append(sources, p)
		}
		switch {
		case r.ObjType == audit.EntityProcess:
			spec := strings.SplitN(r.ObjSpec, ":", 2)
			pid, _ := strconv.Atoi(spec[0])
			children[p] = append(children[p], edge{procID{r.Host, pid, spec[1]}, line})
		case r.Op == audit.OpRead && r.ObjType == audit.EntityFile && strings.Contains(r.ObjSpec, "/etc/passwd"):
			if _, ok := reads[p]; !ok {
				reads[p] = line
			}
		}
	}
	var rows []Row
	for _, src := range sources {
		// Depth-first over at most three hops; keep the chain that
		// becomes visible first.
		best := -1
		var walk func(p procID, hops, last int)
		walk = func(p procID, hops, last int) {
			if line, ok := reads[p]; ok {
				if line > last {
					last = line
				}
				if best < 0 || last < best {
					best = last
				}
			}
			if hops == 3 {
				return
			}
			for _, e := range children[p] {
				l := last
				if e.line > l {
					l = e.line
				}
				walk(e.to, hops+1, l)
			}
		}
		walk(src, 0, 0)
		if best >= 0 {
			rows = append(rows, Row{key(src.host, src.pid), c.batchOf(best) + 1})
		}
	}
	return rows
}

// ExpectScan counts the rows of ScanText over the first n batches:
// every file read or write, as (host, pid, path).
func (c *Corpus) ExpectScan(n int) map[string]int {
	out := map[string]int{}
	for _, r := range c.Records[:c.LinesThrough(n)] {
		if r.ObjType == audit.EntityFile && (r.Op == audit.OpRead || r.Op == audit.OpWrite) {
			out[RowKey([]string{r.Host, strconv.Itoa(r.PID), r.ObjSpec})]++
		}
	}
	return out
}

// ExpectJoin counts the rows of JoinText over the first n batches: one
// per (read, write) pair of the same process with the read starting
// strictly earlier, as (host, pid, read path, written path).
func (c *Corpus) ExpectJoin(n int) map[string]int {
	type rw struct{ reads, writes []audit.Record }
	procs := map[procID]*rw{}
	var order []procID
	for _, r := range c.Records[:c.LinesThrough(n)] {
		if r.ObjType != audit.EntityFile || (r.Op != audit.OpRead && r.Op != audit.OpWrite) {
			continue
		}
		p := procID{r.Host, r.PID, r.Exe}
		e := procs[p]
		if e == nil {
			e = &rw{}
			procs[p] = e
			order = append(order, p)
		}
		if r.Op == audit.OpRead {
			e.reads = append(e.reads, r)
		} else {
			e.writes = append(e.writes, r)
		}
	}
	out := map[string]int{}
	for _, p := range order {
		e := procs[p]
		for _, rd := range e.reads {
			for _, wr := range e.writes {
				if rd.StartNS < wr.StartNS {
					out[RowKey([]string{p.host, strconv.Itoa(p.pid), rd.ObjSpec, wr.ObjSpec})]++
				}
			}
		}
	}
	return out
}

// Total sums a row multiset.
func Total(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// CheckSet verifies a distinct result against expected rows. The answer
// must hold every row visible after lo batches and nothing that is not
// visible after hi batches; on a static store lo == hi.
func CheckSet(want []Row, got [][]string, lo, hi int) error {
	seen := make(map[string]bool, len(got))
	for _, g := range got {
		k := RowKey(g)
		if seen[k] {
			return fmt.Errorf("row %q returned twice", g)
		}
		seen[k] = true
	}
	for _, w := range want {
		if w.After <= lo && !seen[w.Key] {
			return fmt.Errorf("row %q missing (visible after %d batches, %d stored)", strings.Split(w.Key, "\x1f"), w.After, lo)
		}
		if w.After > hi && seen[w.Key] {
			return fmt.Errorf("row %q returned before its batch %d was sent", strings.Split(w.Key, "\x1f"), w.After-1)
		}
		delete(seen, w.Key)
	}
	for k := range seen {
		return fmt.Errorf("unexpected row %q", strings.Split(k, "\x1f"))
	}
	return nil
}

// CheckBag verifies that rows are drawn from the multiset want without
// exceeding any row's count, and adds them to used (which the caller
// shares across the pages of one hunt). A full drain must also end with
// Total(used) == Total(want).
func CheckBag(want, used map[string]int, rows [][]string) error {
	for _, r := range rows {
		k := RowKey(r)
		used[k]++
		if used[k] > want[k] {
			if want[k] == 0 {
				return fmt.Errorf("unexpected row %q", r)
			}
			return fmt.Errorf("row %q returned %d times, expected %d", r, used[k], want[k])
		}
	}
	return nil
}
