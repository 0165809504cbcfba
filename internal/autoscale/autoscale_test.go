package autoscale

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/app"
	"repro/internal/estimator"
)

func TestPlanSeriesBasics(t *testing.T) {
	series := []float64{10, 20, 30, 5, 5, 5}
	cfg := Config{IntervalWindows: 3, Headroom: 0.10}
	allocs, err := PlanSeries(series, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(allocs) != 2 {
		t.Fatalf("allocations = %v", allocs)
	}
	if math.Abs(allocs[0].Amount-33) > 1e-9 {
		t.Errorf("first allocation = %v, want 33 (peak 30 + 10%%)", allocs[0].Amount)
	}
	if math.Abs(allocs[1].Amount-5.5) > 1e-9 {
		t.Errorf("second allocation = %v, want 5.5", allocs[1].Amount)
	}
	if allocs[0].From != 0 || allocs[0].To != 3 || allocs[1].To != 6 {
		t.Errorf("ranges = %v", allocs)
	}
}

func TestPlanHysteresisMergesIntervals(t *testing.T) {
	// Small fluctuations should not change the allocation. Hysteresis may
	// only spend headroom (the held amount must still cover each
	// interval's raw peak), so the dead-band needs headroom to live in.
	series := []float64{100, 101, 99, 100, 102, 98}
	cfg := Config{IntervalWindows: 2, Headroom: 0.10, MinChange: 0.05}
	allocs, _ := PlanSeries(series, cfg)
	if len(allocs) != 1 {
		t.Fatalf("hysteresis should merge to one allocation, got %v", allocs)
	}
	if allocs[0].From != 0 || allocs[0].To != 6 {
		t.Errorf("merged range = %v", allocs[0])
	}
}

func TestPlanRampRegression(t *testing.T) {
	// Regression for the hysteresis ratchet: a slow monotonic ramp whose
	// per-interval change stays inside the MinChange dead-band. The
	// pre-fix planner kept the stale allocation as long as the change was
	// small, baking under-provisioned intervals into the plan; the fix
	// only holds an allocation while it still covers the interval's raw
	// demand peak, so drift below demand is bounded at zero.
	var series []float64
	level := 100.0
	for i := 0; i < 6; i++ { // +4% per interval, under MinChange=0.05
		for w := 0; w < 4; w++ {
			series = append(series, level)
		}
		level *= 1.04
	}
	cfg := Config{IntervalWindows: 4, Headroom: 0, MinChange: 0.05}
	allocs, err := PlanSeries(series, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for w, d := range series {
		if a := AllocationAt(allocs, w); a < d {
			t.Fatalf("window %d: allocation %.2f below demand %.2f (ratchet)", w, a, d)
		}
	}
	if rep := Assess(allocs, series); rep.ViolationFrac != 0 {
		t.Errorf("ramp plan violates %.0f%% of windows, want 0", 100*rep.ViolationFrac)
	}
}

func TestPlannerIncrementalMatchesPlanSeries(t *testing.T) {
	// The control loop's incremental Planner and the offline planSeries
	// must produce identical allocations for the same peaks.
	series := []float64{10, 12, 11, 30, 29, 31, 30.5, 30.4, 5, 6, 5.5, 5.2}
	cfg := Config{IntervalWindows: 4, Headroom: 0.10, MinChange: 0.05}
	allocs, err := PlanSeries(series, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPlanner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for from := 0; from < len(series); from += cfg.IntervalWindows {
		to := from + cfg.IntervalWindows
		peak := 0.0
		for _, v := range series[from:to] {
			if v > peak {
				peak = v
			}
		}
		got := pl.Next(peak)
		if want := AllocationAt(allocs, from); got != want {
			t.Errorf("interval at %d: Planner %.3f, PlanSeries %.3f", from, got, want)
		}
		if pl.prev != got {
			t.Errorf("prev = %v after Next() = %v", pl.prev, got)
		}
	}
	if _, err := NewPlanner(Config{Headroom: -1}); err == nil {
		t.Error("negative headroom must fail")
	}
	if _, err := NewPlanner(Config{MinChange: -1}); err == nil {
		t.Error("negative MinChange must fail")
	}
}

func TestPlanValidation(t *testing.T) {
	if _, err := PlanSeries([]float64{1}, Config{}); err == nil {
		t.Error("zero interval must fail")
	}
	if _, err := Plan(nil, Config{IntervalWindows: 2, Headroom: -1}); err == nil {
		t.Error("negative headroom must fail")
	}
}

func TestPlanUsesUpperBound(t *testing.T) {
	p := app.Pair{Component: "A", Resource: app.CPU}
	est := map[app.Pair]estimator.Estimate{p: {
		Exp: []float64{10, 10},
		Up:  []float64{15, 15},
		Low: []float64{8, 8},
	}}
	cfg := Config{IntervalWindows: 2, UseUpper: true}
	s, err := Plan(est, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := s[p][0].Amount; got != 15 {
		t.Errorf("allocation = %v, want 15 (upper bound)", got)
	}
	cfg.UseUpper = false
	s, _ = Plan(est, cfg)
	if got := s[p][0].Amount; got != 10 {
		t.Errorf("allocation = %v, want 10 (expected value)", got)
	}
}

func TestAllocationAt(t *testing.T) {
	allocs := []Allocation{{From: 0, To: 3, Amount: 5}, {From: 3, To: 6, Amount: 9}}
	if AllocationAt(allocs, 2) != 5 || AllocationAt(allocs, 3) != 9 {
		t.Error("AllocationAt boundaries wrong")
	}
	if AllocationAt(allocs, 10) != 0 {
		t.Error("out-of-schedule should be 0")
	}
	if AllocationAt(allocs, -1) != 0 || AllocationAt(nil, 0) != 0 {
		t.Error("out-of-range lookups should be 0")
	}
	if AllocationAtHold(allocs, 10) != 9 || AllocationAtHold(allocs, 6) != 9 {
		t.Error("AllocationAtHold should extend the last allocation")
	}
	if AllocationAtHold(allocs, 2) != 5 || AllocationAtHold(nil, 3) != 0 {
		t.Error("AllocationAtHold in-schedule/empty lookups wrong")
	}
	if Horizon(allocs) != 6 || Horizon(nil) != 0 {
		t.Error("Horizon wrong")
	}
}

// TestAllocationAtMatchesLinear pins the binary search against the obvious
// linear reference on randomized contiguous schedules.
func TestAllocationAtMatchesLinear(t *testing.T) {
	linear := func(allocs []Allocation, w int) float64 {
		for _, a := range allocs {
			if w >= a.From && w < a.To {
				return a.Amount
			}
		}
		return 0
	}
	f := func(lens []uint8, probe uint16) bool {
		var allocs []Allocation
		from := 0
		for i, l := range lens {
			n := int(l%7) + 1
			allocs = append(allocs, Allocation{From: from, To: from + n, Amount: float64(i + 1)})
			from += n
		}
		w := int(probe) % (from + 10)
		return AllocationAt(allocs, w) == linear(allocs, w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAssessHorizonMismatch(t *testing.T) {
	// Measured series longer than the plan: the extra windows must be
	// reported as a horizon mismatch, not scored as depth-1.0 violations
	// against a phantom zero allocation.
	allocs := []Allocation{{From: 0, To: 2, Amount: 10}}
	actual := []float64{5, 5, 8, 8, 8, 8}
	r := Assess(allocs, actual)
	if r.BeyondHorizon != 4 {
		t.Errorf("BeyondHorizon = %d, want 4", r.BeyondHorizon)
	}
	if r.ViolationFrac != 0 {
		t.Errorf("ViolationFrac = %v, want 0 (no violation inside the horizon)", r.ViolationFrac)
	}
	if r.ViolationDepth != 0 {
		t.Errorf("ViolationDepth = %v, want 0", r.ViolationDepth)
	}
	// An empty schedule scores nothing: every window is beyond the
	// (zero-length) horizon.
	r = Assess(nil, actual)
	if r.BeyondHorizon != len(actual) || r.ViolationFrac != 0 {
		t.Errorf("empty schedule: %+v", r)
	}
}

func TestAssess(t *testing.T) {
	allocs := []Allocation{{From: 0, To: 4, Amount: 10}}
	actual := []float64{8, 12, 9, 20}
	r := Assess(allocs, actual)
	if r.ViolationFrac != 0.5 {
		t.Errorf("ViolationFrac = %v, want 0.5", r.ViolationFrac)
	}
	// Shortfalls: (12-10)/12 and (20-10)/20 → mean ≈ 0.3333.
	if math.Abs(r.ViolationDepth-((2.0/12+10.0/20)/2)) > 1e-9 {
		t.Errorf("ViolationDepth = %v", r.ViolationDepth)
	}
	// Waste: (10-8) + (10-9) = 3 over demand 49.
	if math.Abs(r.WasteFrac-3.0/49) > 1e-9 {
		t.Errorf("WasteFrac = %v", r.WasteFrac)
	}
	if r.Changes != 0 {
		t.Errorf("Changes = %d", r.Changes)
	}
	if got := Assess(nil, nil); got != (Report{}) {
		t.Error("empty assessment should be zero")
	}
}

// Property: per pair, the violating and non-violating window counts
// partition the scored range exactly — ViolationFrac·scored + ok == scored,
// with scored = len(actual) − BeyondHorizon.
func TestAssessPartitionProperty(t *testing.T) {
	f := func(raw []float64, lens []uint8) bool {
		series := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				series = append(series, math.Abs(v))
			}
		}
		var allocs []Allocation
		from := 0
		for i, l := range lens {
			n := int(l%5) + 1
			allocs = append(allocs, Allocation{From: from, To: from + n, Amount: float64(i % 3)})
			from += n
		}
		rep := Assess(allocs, series)
		scored := len(series) - rep.BeyondHorizon
		if scored < 0 {
			return false
		}
		if scored == 0 {
			return rep.ViolationFrac == 0
		}
		violations := rep.ViolationFrac * float64(scored)
		ok := 0
		for w, d := range series[:scored] {
			if d <= AllocationAt(allocs, w) {
				ok++
			}
		}
		return math.Abs(violations+float64(ok)-float64(scored)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: with zero estimation error, any non-negative headroom, and any
// hysteresis dead-band, a plan built from the demand itself never violates.
// (Pre-fix this only held with MinChange=0: the dead-band could hold an
// allocation below a later interval's peak.)
func TestPerfectPlanNeverViolatesProperty(t *testing.T) {
	f := func(raw []float64, h8, m8 uint8) bool {
		series := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				series = append(series, math.Abs(v))
			}
		}
		if len(series) == 0 {
			return true
		}
		cfg := Config{IntervalWindows: 3, Headroom: float64(h8) / 255, MinChange: float64(m8) / 255}
		allocs, err := PlanSeries(series, cfg)
		if err != nil {
			return false
		}
		return Assess(allocs, series).ViolationFrac == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
