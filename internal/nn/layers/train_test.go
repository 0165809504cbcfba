package layers

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForEachRunsEveryJobOnce: at one worker and at four, every job index
// runs exactly once, and a failing job's error comes back while the other
// jobs still run.
func TestForEachRunsEveryJobOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	boom := errors.New("boom")
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		var runs [9]atomic.Int32
		err := ForEach(len(runs), func(i int, ws *Workspace) error {
			if ws == nil || ws.Tape == nil || ws.Eval == nil {
				t.Error("a job ran without a workspace")
			}
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
	}
	if err := ForEach(0, func(int, *Workspace) error { return boom }); err != nil {
		t.Fatalf("no jobs: err = %v", err)
	}
}
