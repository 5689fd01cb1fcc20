package corpus

import (
	"fmt"

	"repro/internal/audit/gen"
)

// Class names one kind of hunt the workloads send.
type Class string

// The hunt classes. The first five have fixed texts and small answers;
// Scan and Join get a fresh text per call and large answers.
const (
	Leak8   Class = "leak8"
	Crack8  Class = "crack8"
	Point   Class = "point"
	HostPin Class = "hostpin"
	Path    Class = "path"
	Scan    Class = "scan"
	Join    Class = "join"
	// IOCLeak and IOCCrack are the single-pattern standing-hunt rules.
	IOCLeak  Class = "ioc_leak"
	IOCCrack Class = "ioc_crack"
)

// Classes lists the hunt classes in reporting order.
var Classes = []Class{Leak8, Crack8, Point, HostPin, Path, Scan, Join}

// WatchClasses lists the standing hunts soc_mixed registers.
var WatchClasses = []Class{Leak8, Crack8, IOCLeak, IOCCrack}

// SmallPage is the page size both halves of the benchmark ask for on the
// small-answer classes; their whole answer must fit in it.
const SmallPage = 100

// PinnedHost is the host the hostpin class restricts itself to, so the
// daemon prunes the hunt to one shard.
const PinnedHost = "host3"

// texts holds the fixed TBQL sources. Every one returns the host and a
// per-instance pid, so each injected instance is its own row.
var texts = map[Class]string{
	// The Fig. 2 data-leakage query as the synthesizer emits it.
	Leak8: `proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as evt1
proc p1 write file f2["%/tmp/upload.tar%"] as evt2
proc p2["%/bin/bzip2%"] read file f2 as evt3
proc p2 write file f3["%/tmp/upload.tar.bz2%"] as evt4
proc p3["%/usr/bin/gpg%"] read file f3 as evt6
proc p3 write file f4["%/tmp/upload%"] as evt7
proc p4["%/usr/bin/curl%"] read file f4 as evt8
proc p4 connect ip i1["` + gen.C2IP + `"] as evt9
with evt1 before evt2, evt2 before evt3, evt3 before evt4, evt4 before evt6, evt6 before evt7, evt7 before evt8, evt8 before evt9
return distinct p1.host, p1.pid, p4.pid`,
	// The password-crack chain, every pattern tied to the next through a
	// shared process or file: wget fetches the image and the cracker, the
	// shell makes it executable and starts it, it reads the shadow file
	// and reports to C2.
	Crack8: `proc p1["%/usr/bin/wget%"] connect ip i1["` + gen.DropboxIP + `"] as evt1
proc p1 write file f1["%/tmp/logo.jpg%"] as evt2
proc p2["%/usr/bin/exiftool%"] read file f1 as evt3
proc p1 write file f2["%/tmp/cracker%"] as evt4
proc p4["%/bin/bash%"] chmod file f2 as evt5
proc p4 fork proc p3["%/tmp/cracker%"] as evt6
proc p3 read file f3["%/etc/shadow%"] as evt7
proc p3 connect ip i2["` + gen.C2IP + `"] as evt8
with evt1 before evt2, evt2 before evt3, evt3 before evt4, evt4 before evt5, evt5 before evt6, evt6 before evt7, evt7 before evt8
return distinct p1.host, p1.pid, p3.pid`,
	Point: `proc p["%/bin/tar%"] read file f["%/etc/passwd%"] as e1
return distinct p.host, p.pid`,
	HostPin: `proc p[exename like "%/bin/tar%" && host = "` + PinnedHost + `"] read file f["%/etc/passwd%"] as e1
return distinct p.host, p.pid`,
	Path: `proc web["%/usr/sbin/apache2%"] ~>(1~4)[read] file cred["%/etc/passwd%"] as reach
return distinct web.host, web.pid`,
	IOCLeak: `proc p["%/usr/bin/curl%"] connect ip i["` + gen.C2IP + `"] as e1
return distinct p.host, p.pid`,
	IOCCrack: `proc p["%/tmp/cracker%"] connect ip i["` + gen.C2IP + `"] as e1
return distinct p.host, p.pid`,
}

// Text returns the fixed TBQL source of a class.
func Text(c Class) string {
	t, ok := texts[c]
	if !ok {
		panic("corpus: class " + string(c) + " has no fixed text")
	}
	return t
}

// window renders a time window that covers the whole corpus. Its lower
// edge lies an hour before the first record and moves by i nanoseconds,
// so every i gives a text the daemon has never seen and the same answer.
func (c *Corpus) window(i int) string {
	const hour = int64(3600e9)
	return fmt.Sprintf("from %d to %d", c.StartNS-hour+int64(i), c.EndNS+hour)
}

// ScanText is a single-pattern hunt matching every file read or write.
func (c *Corpus) ScanText(i int) string {
	return "proc p read || write file f as e1 " + c.window(i) + "\nreturn p.host, p.pid, f"
}

// JoinText is a two-pattern hunt: a process reads a file and later
// writes one. Both patterns carry the window, so neither finds a cached
// plan.
func (c *Corpus) JoinText(i int) string {
	w := c.window(i)
	return "proc p read file f as e1 " + w + "\nproc p write file g as e2 " + w + "\nwith e1 before e2\nreturn p.host, p.pid, f, g"
}
