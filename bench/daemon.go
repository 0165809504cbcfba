package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// daemon is one deeprestd child process listening on loopback TCP.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	log    *os.File
	exited chan struct{} // closed when the process has ended
	killed atomic.Bool   // set before the harness stops it on purpose
}

// live holds every daemon not yet stopped, so that a signal can stop them.
var (
	liveMu sync.Mutex
	live   = map[*daemon]bool{}
)

func stopAllDaemons() {
	liveMu.Lock()
	ds := make([]*daemon, 0, len(live))
	for d := range live {
		ds = append(ds, d)
	}
	liveMu.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// startDaemon boots bin with args on a free loopback port and waits until it
// answers GET /v1/status. Its stdout and stderr are appended to logPath.
func startDaemon(bin, logPath string, args ...string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("daemon log: %w", err)
	}
	// The daemon runs at a lower priority than the load generator: they
	// share the machine's cores, and a generator that waits for a core the
	// daemon holds sends late and charges its own wait to the daemon.
	cmd := exec.Command("nice", append([]string{"-n", "5", bin, "-addr", addr, "-log-level", "warn"}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, log: logf, exited: make(chan struct{})}
	liveMu.Lock()
	live[d] = true
	liveMu.Unlock()
	go func() {
		_ = cmd.Wait() // the exit status is reported through crashed()
		close(d.exited)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(d.base + "/v1/status")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if d.crashed() || time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("daemon did not come up on %s (see %s)", addr, logPath)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// crashed reports whether the process ended without the harness stopping it.
func (d *daemon) crashed() bool {
	select {
	case <-d.exited:
		return !d.killed.Load()
	default:
		return false
	}
}

// stop kills the process and waits until it has ended. The daemon holds no
// state the benchmark needs after a run, so there is no graceful path.
func (d *daemon) stop() {
	d.killed.Store(true)
	_ = d.cmd.Process.Kill() // already-exited is fine
	<-d.exited
	d.log.Close()
	liveMu.Lock()
	delete(live, d)
	liveMu.Unlock()
}

// cpuSeconds is the CPU time the process's threads have used so far: the
// sum of the run time in /proc/<pid>/task/*/schedstat, which the kernel keeps
// in nanoseconds (the utime and stime of /proc/<pid>/stat are in 10 ms ticks,
// too coarse for a slice of a few seconds). A Go program keeps its threads,
// so the sum does not fall.
func (d *daemon) cpuSeconds() (float64, error) {
	dir := fmt.Sprintf("/proc/%d/task", d.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, t := range tasks {
		raw, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread ended between the listing and the read
		}
		f := strings.Fields(string(raw))
		if len(f) < 1 {
			return 0, errors.New("malformed schedstat")
		}
		ns, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, errors.New("unparsable schedstat")
		}
		total += ns
	}
	if total == 0 {
		return 0, errors.New("no schedstat run time (kernel without CONFIG_SCHED_INFO?)")
	}
	return total / 1e9, nil
}

// rssPeakMB is the process's resident-set high-water mark (VmHWM).
func (d *daemon) rssPeakMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// selfCPUSeconds is the harness's own user+system CPU time so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// machineCPU is the first line of /proc/stat in seconds: what every process
// of the machine used, and what the hypervisor took (steal).
type machineCPU struct{ user, nice, system, idle, steal float64 }

func readMachineCPU() machineCPU {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return machineCPU{}
	}
	f := strings.Fields(strings.SplitN(string(raw), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return machineCPU{}
	}
	v := func(i int) float64 {
		x, _ := strconv.ParseFloat(f[i], 64) // a malformed field reads as 0
		return x / 100                       // USER_HZ is 100 on every Linux platform Go supports
	}
	return machineCPU{user: v(1), nice: v(2), system: v(3) + v(6) + v(7), idle: v(4) + v(5), steal: v(8)}
}
