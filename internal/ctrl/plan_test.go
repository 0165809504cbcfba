package ctrl

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/estimator"
)

func TestPlanSeriesBasics(t *testing.T) {
	series := []float64{10, 20, 30, 5, 5, 5}
	cfg := Config{IntervalWindows: 3, Headroom: 0.10}
	allocs, err := Plan(series, cfg)
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
	allocs, _ := Plan(series, cfg)
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
	allocs, err := Plan(series, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range allocs {
		for w := a.From; w < a.To; w++ {
			if a.Amount < series[w] {
				t.Fatalf("window %d: allocation %.2f below demand %.2f (ratchet)", w, a.Amount, series[w])
			}
		}
	}
	if rep := Assess(allocs, series); rep.ViolationFrac != 0 {
		t.Errorf("ramp plan violates %.0f%% of windows, want 0", 100*rep.ViolationFrac)
	}
}

// TestPlanIsZeroLagProactive pins the one allocation rule: for any
// forecast, Plan's amounts divided by UtilTarget and floored at MinCapacity
// are exactly the capacities a zero-lag Run of NewProactive actuates on
// that forecast, interval by interval.
func TestPlanIsZeroLagProactive(t *testing.T) {
	f := func(raw []float64, k8, h8, m8, s8 uint8) bool {
		// Scales down to 1e-4 reach the MinCapacity floor.
		scale := math.Pow(10, -float64(s8%5))
		var forecast []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				forecast = append(forecast, math.Mod(math.Abs(v), 1000)*scale)
			}
		}
		if len(forecast) == 0 {
			return true
		}
		cfg := DefaultConfig()
		cfg.IntervalWindows = int(k8%6) + 1
		cfg.LagWindows = 0
		cfg.Headroom = float64(h8) / 255
		cfg.MinChange = float64(m8) / 255
		allocs, err := Plan(forecast, cfg)
		if err != nil {
			return false
		}
		// One decision boundary past the forecast, where the policy
		// holds, lets the recorder see the last actuated capacity.
		intervals := (len(forecast) + cfg.IntervalWindows - 1) / cfg.IntervalWindows
		counts := make([]int, intervals*cfg.IntervalWindows+1)
		for w := range counts {
			counts[w] = 500
		}
		env := toyEnv(counts)
		env.Components = []string{"DB"}
		pol := &recordingProactive{Proactive: NewProactive("plan", map[string][]float64{"DB": forecast})}
		if _, err := Run(env, cfg, pol); err != nil {
			return false
		}
		if len(pol.caps) != intervals+1 {
			return false
		}
		for _, a := range allocs {
			for from := a.From; from < a.To; from += cfg.IntervalWindows {
				want := math.Max(a.Amount/cfg.UtilTarget, cfg.MinCapacity)
				if pol.caps[from/cfg.IntervalWindows+1] != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// recordingProactive records the DB capacity the loop exposes at each
// decision boundary: the one the previous boundary actuated, at zero lag.
type recordingProactive struct {
	*Proactive
	caps []float64
}

func (r *recordingProactive) Target(from, to int, obs Observed) map[string]float64 {
	r.caps = append(r.caps, obs.Capacity["DB"])
	return r.Proactive.Target(from, to, obs)
}

func TestPlanValidation(t *testing.T) {
	if _, err := Plan([]float64{1}, Config{}); err == nil {
		t.Error("zero interval must fail")
	}
	for _, h := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := Plan(nil, Config{IntervalWindows: 2, Headroom: h}); err == nil {
			t.Errorf("headroom %v must fail", h)
		}
	}
	if _, err := Plan(nil, Config{IntervalWindows: 2, MinChange: -1}); err == nil {
		t.Error("negative MinChange must fail")
	}
}

func TestPlanUsesUpperBound(t *testing.T) {
	est := estimator.Estimate{
		Exp: []float64{10, 10},
		Up:  []float64{15, 15},
		Low: []float64{8, 8},
	}
	allocs, err := Plan(Demand(est), Config{IntervalWindows: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := allocs[0].Amount; got != 15 {
		t.Errorf("allocation = %v, want 15 (upper bound)", got)
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
		for _, a := range allocs {
			for w := a.From; w < a.To && w < scored; w++ {
				if series[w] <= a.Amount {
					ok++
				}
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
		allocs, err := Plan(series, cfg)
		if err != nil {
			return false
		}
		return Assess(allocs, series).ViolationFrac == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
