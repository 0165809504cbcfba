package quality

import (
	"runtime"
	"slices"
	"strconv"
	"testing"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/estimator"
)

// TestRingMatchesSlice pushes through growth and several wrap-arounds,
// dropping the newest entries every fifth push, and holds last(k) to the
// tail of a plain slice of what is held, with the buffer never larger than
// the ring's capacity.
func TestRingMatchesSlice(t *testing.T) {
	for _, capacity := range []int{0, 1, 3, 16, 17, 100} {
		r := newRing[int](capacity)
		limit := max(capacity, 1)
		var all []int
		held := 0
		for v := 0; v < 3*limit+2; v++ {
			r.push(v)
			all = append(all, v)
			held = min(held+1, limit)
			if v%5 == 4 {
				r.drop(2)
				all = all[:max(len(all)-2, 0)]
				held = max(held-2, 0)
			}
			if cap(r.buf) > limit {
				t.Fatalf("capacity %d: buffer of %d after %d pushes", capacity, cap(r.buf), v+1)
			}
			for _, k := range []int{0, 1, 2, limit - 1, limit, limit + 5} {
				var got []int
				n := r.last(k, func(x int) { got = append(got, x) })
				want := all[len(all)-min(max(k, 0), held):]
				if n != len(want) || !slices.Equal(got, want) {
					t.Fatalf("capacity %d after %d pushes: last(%d) = %v (%d), want %v", capacity, v+1, k, got, n, want)
				}
			}
		}
	}
}

// TestFreshBoardIsSmall: a board's rings hold what was scored, not the
// horizon — 399 pairs at a 24 h horizon of 1-minute windows used to be
// 17.6 MB of zeroes before the first window arrived.
func TestFreshBoardIsSmall(t *testing.T) {
	model := &estimator.Model{Cfg: estimator.DefaultConfig()}
	for i := 0; i < 399; i++ {
		model.Pairs = append(model.Pairs, app.Pair{Component: "c" + strconv.Itoa(i), Resource: app.CPU})
	}
	sys := core.Restore(model, nil, core.DefaultOptions())
	s := New(Config{}, Deps{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b := s.newBoard(1, sys, 1440)
	runtime.ReadMemStats(&after)
	if len(b.pairs) != 399 {
		t.Fatalf("board scores %d pairs, want 399", len(b.pairs))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("a fresh board for 399 pairs allocated %d bytes, want < 1 MB", got)
	}
}
