package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// schedIdle is Linux's SCHED_IDLE policy: a thread that runs only when
// nothing else wants its CPU and is preempted the instant something does.
const schedIdle = 5

// heaters keep every CPU busy at idle priority during the socket phases. A
// virtual CPU with nothing to run is parked by the hypervisor, and waking it
// costs 0.3 to 3 ms on the machines this runs on, more in some runs than in
// others; a cache hit takes 0.2 ms, so without heaters the fleet's
// latency_p50_ms measured the hypervisor (spread 8 to 31 % over ten seeds,
// 2 % with heaters). It is what turning off CPU idle states is on hardware.
type heaters struct {
	procs int // GOMAXPROCS before the heaters started
	stop  atomic.Bool
	wg    sync.WaitGroup
	cpu   atomic.Int64 // microseconds of CPU the heater threads used
}

// startHeaters starts one heater per CPU. It returns nil when the kernel
// refuses the idle policy: a spinner at normal priority would take the
// daemon's CPU.
func startHeaters() *heaters {
	// Each heater occupies one of the Go scheduler's processors for good;
	// the harness's own goroutines keep as many as they had.
	h := &heaters{procs: runtime.GOMAXPROCS(0)}
	runtime.GOMAXPROCS(h.procs + runtime.NumCPU())
	ok := make(chan bool)
	for i := 0; i < runtime.NumCPU(); i++ {
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			// Locked and never unlocked: the thread keeps the idle policy,
			// so it must end with this goroutine.
			runtime.LockOSThread()
			var param struct{ priority int32 }
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param)))
			ok <- errno == 0
			if errno != 0 {
				return
			}
			// The thread may have run other goroutines before this one
			// was locked to it.
			before := threadCPUMicros()
			for !h.stop.Load() {
			}
			h.cpu.Add(threadCPUMicros() - before)
		}()
	}
	all := true
	for i := 0; i < runtime.NumCPU(); i++ {
		all = <-ok && all
	}
	if !all {
		h.halt()
		return nil
	}
	return h
}

// threadCPUMicros is the calling thread's CPU time so far, in microseconds.
func threadCPUMicros() int64 {
	const rusageThread = 1 // RUSAGE_THREAD, which package syscall does not name
	var ru syscall.Rusage
	if syscall.Getrusage(rusageThread, &ru) != nil {
		return 0
	}
	return (ru.Utime.Nano() + ru.Stime.Nano()) / 1e3
}

// halt stops the heaters and returns the CPU seconds they used.
func (h *heaters) halt() float64 {
	if h == nil {
		return 0
	}
	if !h.stop.Swap(true) {
		h.wg.Wait()
		runtime.GOMAXPROCS(h.procs)
	}
	return float64(h.cpu.Load()) / 1e6
}
