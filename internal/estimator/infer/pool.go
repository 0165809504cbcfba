package infer

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a fixed set of long-lived workers that execute index-fanned jobs.
// The serving path shares one process-wide pool across every engine and
// every in-flight request, so concurrent /v1/estimate queries fan their
// expert passes over a bounded goroutine count instead of spawning one
// goroutine per (request, expert).
//
// Run is deadlock-free under nesting and undersubscription: the job is
// offered to workers with non-blocking sends and the calling goroutine
// always participates in draining the index space, so progress never
// depends on a free worker.
type Pool struct {
	jobs    chan *job
	workers int
}

// job is one Run invocation: workers (and the caller) claim indices from
// next until the space [0, n) is exhausted.
type job struct {
	fn   func(int)
	n    int32
	next atomic.Int32
	wg   sync.WaitGroup
}

func (j *job) run() {
	for {
		i := j.next.Add(1) - 1
		if i >= j.n {
			return
		}
		j.fn(int(i))
		j.wg.Done()
	}
}

// NewPool starts a pool of n workers (n < 1 means GOMAXPROCS). There is no
// way to stop them: the workers live as long as the process.
func NewPool(n int) *Pool {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{jobs: make(chan *job, 2*n), workers: n}
	for i := 0; i < n; i++ {
		go func() {
			for j := range p.jobs {
				j.run()
			}
		}()
	}
	return p
}

// Run executes fn(i) for every i in [0, n) and returns when all calls have
// completed. Work is claimed dynamically, so uneven per-index cost balances
// across workers. A nil pool runs inline.
func (p *Pool) Run(n int, fn func(int)) {
	if n <= 0 {
		return
	}
	if p == nil || p.workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	j := &job{fn: fn, n: int32(n)}
	j.wg.Add(n)
	// Offer the job to up to workers-many helpers; a full queue just means
	// the pool is busy and the caller does more of the work itself. Workers
	// that pick the job up after it is drained exit run immediately.
	offers := p.workers - 1
	if offers > n-1 {
		offers = n - 1
	}
	for i := 0; i < offers; i++ {
		select {
		case p.jobs <- j:
		default:
			i = offers // queue full; stop offering
		}
	}
	j.run()
	j.wg.Wait()
}

// The process-shared serving pool, one worker per GOMAXPROCS. Engines use
// it by default so generation swaps never leak worker goroutines. Callers
// of Run always participate, so the pool size never bounds how many
// predictions run at once — only how many helpers they can borrow.
var sharedPool = sync.OnceValue(func() *Pool { return NewPool(0) })

// SharedPool returns the process-wide serving pool, creating it on first
// use.
func SharedPool() *Pool { return sharedPool() }
