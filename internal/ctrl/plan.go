package ctrl

import (
	"fmt"
	"math"

	"repro/internal/app"
	"repro/internal/estimator"
)

// The allocation rule, stated once: each scheduling interval reserves the
// interval's demand peak plus Headroom, with a MinChange hysteresis
// dead-band. Run steps it online, one decision boundary at a time; Plan
// applies it offline to a whole demand series. A zero-lag Run of
// NewProactive on a forecast actuates exactly Plan's amounts on that
// forecast (divided by UtilTarget, floored at MinCapacity).

// planner applies the allocation rule one scheduling interval at a time.
type planner struct {
	headroom, minChange float64
	prev                float64
	live                bool
}

// next consumes one scheduling interval's demand peak and returns the
// amount to allocate for that interval.
//
// Hysteresis is only allowed to spend headroom, never SLO: the previous
// allocation is kept when the desired change falls inside the MinChange
// dead-band AND the held amount still covers the interval's raw demand
// peak. Comparing against the last *actual* allocation (not the unclamped
// desired amount) bounds cumulative drift to the dead-band, and the
// peak-coverage condition bounds under-provisioning at zero: a slow
// monotonic ramp whose per-interval change stays inside the dead-band
// still triggers a reallocation the moment the held amount would sit
// below demand.
func (pl *planner) next(peak float64) float64 {
	amount := peak * (1 + pl.headroom)
	if pl.live && math.Abs(amount-pl.prev) <= pl.minChange*math.Max(pl.prev, 1e-9) && pl.prev >= peak {
		amount = pl.prev
	}
	pl.prev = amount
	pl.live = true
	return amount
}

// validatePlan checks the fields the allocation rule reads.
func (c Config) validatePlan() error {
	if c.IntervalWindows <= 0 {
		return fmt.Errorf("ctrl: IntervalWindows must be positive")
	}
	if !(c.Headroom >= 0) || math.IsInf(c.Headroom, 1) {
		return fmt.Errorf("ctrl: Headroom must be finite and non-negative")
	}
	if !(c.MinChange >= 0) {
		return fmt.Errorf("ctrl: negative MinChange")
	}
	return nil
}

// Allocation is one scheduled reservation: Amount of the resource over the
// window range [From, To).
type Allocation struct {
	From, To int
	Amount   float64
}

// Plan builds the allocation timetable for one demand series: one decision
// per IntervalWindows windows, adjacent intervals with equal amounts
// merged. The allocations are contiguous and sorted, starting at window 0.
func Plan(series []float64, cfg Config) ([]Allocation, error) {
	if err := cfg.validatePlan(); err != nil {
		return nil, err
	}
	var out []Allocation
	pl := planner{headroom: cfg.Headroom, minChange: cfg.MinChange}
	for from := 0; from < len(series); from += cfg.IntervalWindows {
		to := min(from+cfg.IntervalWindows, len(series))
		amount := pl.next(seriesPeak(series[from:to]))
		if len(out) > 0 && out[len(out)-1].Amount == amount {
			out[len(out)-1].To = to
		} else {
			out = append(out, Allocation{From: from, To: to, Amount: amount})
		}
	}
	return out, nil
}

func seriesPeak(s []float64) float64 {
	peak := 0.0
	for _, v := range s {
		if v > peak {
			peak = v
		}
	}
	return peak
}

// Demand is the series an estimate is provisioned against: its upper
// confidence bound, or the expected value when the model has no interval.
func Demand(est estimator.Estimate) []float64 {
	if len(est.Up) == len(est.Exp) {
		return est.Up
	}
	return est.Exp
}

// DemandForecast extracts the proactive policy's demand signal from
// DeepRest interval estimates: per component, the Demand of its CPU
// expert, in millicores per window.
func DemandForecast(est map[app.Pair]estimator.Estimate, components []string) map[string][]float64 {
	out := make(map[string][]float64, len(components))
	for _, comp := range components {
		if e, ok := est[app.Pair{Component: comp, Resource: app.CPU}]; ok {
			out[comp] = Demand(e)
		}
	}
	return out
}

// Report scores a plan against measured demand.
type Report struct {
	// ViolationFrac is the fraction of windows where demand exceeded the
	// allocation (under-provisioning → SLO risk).
	ViolationFrac float64
	// ViolationDepth is the mean relative shortfall over violating
	// windows.
	ViolationDepth float64
	// WasteFrac is the total over-allocation as a fraction of total
	// demand (cost of head-room and estimation error).
	WasteFrac float64
	// Changes is the number of allocation changes (provisioning churn).
	Changes int
	// BeyondHorizon counts measured windows past the planned horizon.
	// Those windows are excluded from scoring — the plan says nothing
	// about them — instead of being charged as phantom depth-1.0
	// violations against a zero allocation. A non-zero value is the
	// explicit horizon-mismatch signal for callers that expected the
	// plan to cover the whole measured range.
	BeyondHorizon int
}

// Assess compares one pair's allocations — contiguous and sorted from
// window 0, as Plan builds them — against the measured series. Scoring is
// truncated to the planned horizon: windows the plan does not cover are
// counted in Report.BeyondHorizon rather than scored as violations of an
// all-zero allocation.
func Assess(allocs []Allocation, actual []float64) Report {
	var rep Report
	n := len(actual)
	h := 0
	if len(allocs) > 0 {
		h = allocs[len(allocs)-1].To
	}
	if n > h {
		rep.BeyondHorizon = n - h
		n = h
	}
	if n == 0 {
		return rep
	}
	violations := 0
	depth := 0.0
	waste := 0.0
	demand := 0.0
	i := 0
	for w, d := range actual[:n] {
		for allocs[i].To <= w {
			i++
		}
		a := allocs[i].Amount
		demand += d
		if d > a {
			violations++
			if d > 0 {
				depth += (d - a) / d
			}
		} else {
			waste += a - d
		}
	}
	rep.ViolationFrac = float64(violations) / float64(n)
	if violations > 0 {
		rep.ViolationDepth = depth / float64(violations)
	}
	if demand > 0 {
		rep.WasteFrac = waste / demand
	}
	rep.Changes = max(len(allocs)-1, 0)
	return rep
}
