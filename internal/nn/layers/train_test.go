package layers

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/nn/ad"
)

// TestParallelRunsEveryIndexOnce: at one goroutine and at four, every index
// of an empty, a single, a short and a long index space runs exactly once.
func TestParallelRunsEveryIndexOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 3, 1000} {
			runs := make([]atomic.Int32, n)
			Parallel(n, func(i int) { runs[i].Add(1) })
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Fatalf("GOMAXPROCS %d, n %d: index %d ran %d times", procs, n, i, got)
				}
			}
		}
	}
}

// TestParallelNested: a call from inside a call's fn completes, since each
// call's goroutines are its own.
func TestParallelNested(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var total atomic.Int32
	Parallel(8, func(int) {
		Parallel(8, func(int) { total.Add(1) })
	})
	if got := total.Load(); got != 64 {
		t.Fatalf("nested calls ran %d of 64 indices", got)
	}
}

// TestParallelConcurrentCallers: sixteen goroutines calling at once — the
// serving case, where every in-flight read fans its expert passes out — each
// see every index of every call run. Run under -race in CI.
func TestParallelConcurrentCallers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	done := make(chan int32)
	for range 16 {
		go func() {
			var local atomic.Int32
			for range 50 {
				Parallel(13, func(int) { local.Add(1) })
			}
			done <- local.Load()
		}()
	}
	total := 0
	for range 16 {
		total += int(<-done)
	}
	if want := 16 * 50 * 13; total != want {
		t.Fatalf("concurrent calls ran %d of %d indices", total, want)
	}
}

// TestForEachRunsEveryJobOnce: at one worker and at four, every job index
// runs exactly once on one of at most that many workspaces, and a failing
// job's error comes back while the other jobs still run.
func TestForEachRunsEveryJobOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	boom := errors.New("boom")
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		var runs [9]atomic.Int32
		var mu sync.Mutex
		seen := map[*Workspace]bool{}
		err := ForEach(len(runs), func(i int, ws *Workspace) error {
			if ws == nil || ws.Tape == nil || ws.Eval == nil {
				t.Error("a job ran without a workspace")
			}
			mu.Lock()
			seen[ws] = true
			mu.Unlock()
			runs[i].Add(1)
			if i == 5 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("GOMAXPROCS %d: err = %v, want the failing job's", procs, err)
		}
		for i := range runs {
			if n := runs[i].Load(); n != 1 {
				t.Fatalf("GOMAXPROCS %d: job %d ran %d times", procs, i, n)
			}
		}
		if len(seen) > procs {
			t.Fatalf("GOMAXPROCS %d: jobs ran on %d workspaces", procs, len(seen))
		}
	}
	if err := ForEach(0, func(int, *Workspace) error { return boom }); err != nil {
		t.Fatalf("no jobs: err = %v", err)
	}
}

// TestTrainRefusesNonFiniteGradient: a chunk whose loss is finite but whose
// gradient holds an Inf is refused by name before its Adam update — the clip
// would scale by 5/Inf = 0, Inf·0 is NaN, and Adam would write NaN into the
// parameter — on the tape and in a head fit, where an AfterBackward hook
// plants the Inf in the second head's α gradient.
func TestTrainRefusesNonFiniteGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewDense("d", 2, 1, rng)
	x, tgt := []float64{0.5, -1}, []float64{0.25}
	before := append([]float64(nil), d.W.Data...)
	err := NewWorkspace().Train([]Run{{Name: "dense", Params: d.Params(), Rng: rng}}, Chunks{
		Windows: 4, Len: 2, Epochs: 1, LR: 0.01, ClipNorm: 5,
		Loss: func(tape *ad.Tape, _ int, _ bool) *ad.Value {
			return tape.SquaredError(d.Apply(tape, tape.Const(x)), tgt)
		},
		AfterBackward: func() { d.W.Grad[1] = math.Inf(1) },
	})
	if err == nil || !strings.Contains(err.Error(), "dense: non-finite training gradient") {
		t.Fatalf("tape fit with an Inf gradient: err = %v", err)
	}
	if !slices.Equal(d.W.Data, before) {
		t.Fatalf("W moved on a refused chunk: %v → %v", before, d.W.Data)
	}

	const P, hid, n = 3, 2, 4
	var s Slab
	s.Reset(P, n, 1, hid, n)
	rows, _, _ := s.Block(0)
	for i := range rows {
		rows[i] = float64(i%7) / 7
	}
	heads := make([]Head, P)
	for i := range heads {
		heads[i] = Head{
			Name: fmt.Sprint("head", i), Rng: rand.New(rand.NewSource(int64(i))), Row: i,
			Alpha: ad.NewParam("a", P-1, 1), W: ad.NewParamInit("W", 3, 2*hid, rng), B: ad.NewParam("b", 3, 1),
			Target: []float64{0.1, 0.2, 0.3, 0.4},
		}
	}
	alpha := append([]float64(nil), heads[1].Alpha.Data...)
	w := append([]float64(nil), heads[1].W.Data...)
	err = NewWorkspace().FitHeads(&s, []float64{0.5, 0.05, 0.95}, heads, Chunks{
		Epochs: 1, LR: 0.01, ClipNorm: 5,
		AfterBackward: func() { heads[1].Alpha.Grad[0] = math.Inf(-1) },
	})
	if err == nil || !strings.Contains(err.Error(), "head1: non-finite training gradient") {
		t.Fatalf("head fit with an Inf gradient: err = %v", err)
	}
	if !slices.Equal(heads[1].Alpha.Data, alpha) || !slices.Equal(heads[1].W.Data, w) {
		t.Fatal("the refused head's weights moved")
	}
}
