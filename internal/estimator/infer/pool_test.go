package infer

import (
	"sync/atomic"
	"testing"
)

// TestPoolRunCoversIndexSpace checks every index runs exactly once across
// pool sizes and job shapes, including n much larger than the worker count.
func TestPoolRunCoversIndexSpace(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		p := NewPool(workers)
		for _, n := range []int{0, 1, 3, 7, 64, 1000} {
			counts := make([]atomic.Int32, n)
			p.Run(n, func(i int) { counts[i].Add(1) })
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
		close(p.jobs)
	}
}

// TestPoolNestedRun checks Run called from inside a Run callback cannot
// deadlock: the caller always participates, so progress never waits on a
// free worker.
func TestPoolNestedRun(t *testing.T) {
	p := NewPool(2)
	defer close(p.jobs)
	var total atomic.Int32
	p.Run(8, func(int) {
		p.Run(8, func(int) { total.Add(1) })
	})
	if got := total.Load(); got != 64 {
		t.Fatalf("nested Run executed %d of 64 tasks", got)
	}
}

// TestNilPoolRunsInline checks the nil pool is a safe sequential fallback.
func TestNilPoolRunsInline(t *testing.T) {
	var p *Pool
	ran := 0
	p.Run(5, func(i int) {
		if i != ran {
			t.Fatalf("inline run out of order: got %d want %d", i, ran)
		}
		ran++
	})
	if ran != 5 {
		t.Fatalf("ran %d of 5", ran)
	}
}

// TestPoolConcurrentRuns hammers one pool from many goroutines — the
// serving scenario where every in-flight request fans its expert passes
// over the same shared workers. Run under -race in CI.
func TestPoolConcurrentRuns(t *testing.T) {
	p := NewPool(4)
	defer close(p.jobs)
	done := make(chan int32)
	for g := 0; g < 16; g++ {
		go func() {
			var local atomic.Int32
			for r := 0; r < 50; r++ {
				p.Run(13, func(int) { local.Add(1) })
			}
			done <- local.Load()
		}()
	}
	var total int64
	for g := 0; g < 16; g++ {
		total += int64(<-done)
	}
	if want := int64(16 * 50 * 13); total != want {
		t.Fatalf("concurrent runs executed %d of %d tasks", total, want)
	}
}
