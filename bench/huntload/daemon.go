package main

import (
	"bufio"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one threatraptord child process. It runs in a process group
// of its own so that one signal reaches anything it might spawn, and it
// is reaped on every exit path: stop and kill9 wait for it, killAll runs
// on panic, SIGINT and the watchdog, and Pdeathsig covers the driver
// being killed outright.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	dataDir string
	logPath string
	done    chan struct{} // closed once Wait has returned
}

var (
	liveMu sync.Mutex
	live   = map[*daemon]bool{}
)

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon spawns the daemon on dataDir and waits until it answers
// GET /stats. Only the flags named here are passed, so the benchmark
// does not depend on any flag a later change may delete.
func startDaemon(bin, dataDir, logPath string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, "-addr", addr, "-shards", "2", "-data-dir", dataDir, "-segment-interval", "2s")
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, addr: addr, dataDir: dataDir, logPath: logPath, done: make(chan struct{})}
	liveMu.Lock()
	live[d] = true
	liveMu.Unlock()
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: we stop it with signals
		close(d.done)
	}()

	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/stats")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("daemon exited during start-up; see %s", logPath)
		default:
		}
		if time.Now().After(deadline) {
			d.kill9()
			return nil, fmt.Errorf("daemon not ready after 20 s; see %s", logPath)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

func (d *daemon) signalGroup(sig syscall.Signal) {
	// Negative pid: the whole process group.
	_ = syscall.Kill(-d.cmd.Process.Pid, sig)
}

// kill9 ends the daemon the way a crash would and waits for it.
func (d *daemon) kill9() {
	d.signalGroup(syscall.SIGKILL)
	<-d.done
	liveMu.Lock()
	delete(live, d)
	liveMu.Unlock()
}

// killAll ends every daemon still running.
func killAll() {
	liveMu.Lock()
	ds := make([]*daemon, 0, len(live))
	for d := range live {
		ds = append(ds, d)
	}
	liveMu.Unlock()
	for _, d := range ds {
		d.kill9()
	}
}

// peakRSSMB reads the daemon's peak resident set size.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM line %q: %w", sc.Text(), err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// diskBytes sums the files under the data directory.
func (d *daemon) diskBytes() (int64, error) {
	var total int64
	err := filepath.WalkDir(d.dataDir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil {
			// The daemon rotates and compacts files while we walk.
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err == nil {
				total += info.Size()
			} else if !os.IsNotExist(err) {
				return err
			}
		}
		return nil
	})
	return total, err
}
