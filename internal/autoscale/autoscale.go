// Package autoscale turns resource estimates into schedule-based scaling
// plans — the §2 use case the paper positions DeepRest for: unlike reactive
// autoscalers, which act only after load changes (too late for resources
// that take time to provision), a schedule allocates each resource ahead of
// time from the estimated demand, with headroom taken from the estimator's
// confidence interval.
//
// The package also scores plans against measured consumption, so the
// experiment drivers can compare "what would the cluster have looked like"
// under DeepRest-driven scheduling versus the baselines: violation minutes
// (demand above allocation → queueing/SLO risk) and waste (allocation above
// demand → cost).
package autoscale

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/app"
	"repro/internal/estimator"
)

// Config controls plan construction.
type Config struct {
	// IntervalWindows is the scheduling granularity: one allocation
	// decision per this many windows (e.g. an hour's worth). Resources
	// cannot be re-provisioned per scrape window.
	IntervalWindows int
	// Headroom is the fractional margin added above the estimate
	// (default 0.10).
	Headroom float64
	// UseUpper allocates against the upper confidence bound when
	// available, falling back to the expected value (default true).
	UseUpper bool
	// MinChange is the relative hysteresis: a new interval keeps the
	// previous allocation unless it differs by more than this fraction
	// (default 0.05), avoiding allocation churn.
	MinChange float64
}

// DefaultConfig returns conventional planning parameters.
func DefaultConfig() Config {
	return Config{IntervalWindows: 12, Headroom: 0.10, UseUpper: true, MinChange: 0.05}
}

// Allocation is one scheduled reservation: Amount of the resource over the
// window range [From, To).
type Allocation struct {
	From, To int
	Amount   float64
}

// Schedule is a per-pair allocation timetable.
type Schedule map[app.Pair][]Allocation

// Plan builds a schedule from interval estimates. For each scheduling
// interval the allocation covers the interval's peak estimated demand plus
// headroom.
func Plan(estimates map[app.Pair]estimator.Estimate, cfg Config) (Schedule, error) {
	if cfg.IntervalWindows <= 0 {
		return nil, fmt.Errorf("autoscale: IntervalWindows must be positive")
	}
	if cfg.Headroom < 0 {
		return nil, fmt.Errorf("autoscale: negative headroom")
	}
	out := make(Schedule, len(estimates))
	for p, est := range estimates {
		series := est.Exp
		if cfg.UseUpper && len(est.Up) == len(est.Exp) {
			series = est.Up
		}
		out[p] = planSeries(series, cfg)
	}
	return out, nil
}

// PlanSeries builds the allocation timetable for a single estimated demand
// series — the entry point for callers that bring estimates from any
// source (e.g. a baseline forecaster).
func PlanSeries(series []float64, cfg Config) ([]Allocation, error) {
	if cfg.IntervalWindows <= 0 {
		return nil, fmt.Errorf("autoscale: IntervalWindows must be positive")
	}
	return planSeries(series, cfg), nil
}

// Planner applies the allocation rule (interval peak + headroom, bounded
// hysteresis) one scheduling interval at a time. It is the incremental form
// of PlanSeries, shared with the closed control loop in internal/ctrl so
// the loop and the offline planner cannot drift apart semantically.
type Planner struct {
	cfg  Config
	prev float64
	live bool
}

// NewPlanner returns a Planner with the given headroom and hysteresis
// settings (IntervalWindows is not used: the caller decides the cadence by
// when it calls Next).
func NewPlanner(cfg Config) (*Planner, error) {
	if cfg.Headroom < 0 {
		return nil, fmt.Errorf("autoscale: negative headroom")
	}
	if cfg.MinChange < 0 {
		return nil, fmt.Errorf("autoscale: negative MinChange")
	}
	return &Planner{cfg: cfg}, nil
}

// Next consumes one scheduling interval's demand peak and returns the
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
func (pl *Planner) Next(peak float64) float64 {
	amount := peak * (1 + pl.cfg.Headroom)
	if pl.live && math.Abs(amount-pl.prev) <= pl.cfg.MinChange*math.Max(pl.prev, 1e-9) && pl.prev >= peak {
		amount = pl.prev
	}
	pl.prev = amount
	pl.live = true
	return amount
}

func planSeries(series []float64, cfg Config) []Allocation {
	var out []Allocation
	pl := &Planner{cfg: cfg}
	for from := 0; from < len(series); from += cfg.IntervalWindows {
		to := from + cfg.IntervalWindows
		if to > len(series) {
			to = len(series)
		}
		peak := 0.0
		for _, v := range series[from:to] {
			if v > peak {
				peak = v
			}
		}
		amount := pl.Next(peak)
		if len(out) > 0 && out[len(out)-1].Amount == amount {
			out[len(out)-1].To = to
		} else {
			out = append(out, Allocation{From: from, To: to, Amount: amount})
		}
	}
	return out
}

// Horizon returns the end of the planned range — the first window the
// schedule says nothing about (0 for an empty schedule).
func Horizon(allocs []Allocation) int {
	if len(allocs) == 0 {
		return 0
	}
	return allocs[len(allocs)-1].To
}

// AllocationAt returns the allocated amount for window w, or 0 when w is
// outside the planned horizon. Allocations are contiguous and sorted by
// construction, so the lookup is a binary search — it sits in the control
// loop's per-window hot path. Callers that actuate capacities should
// usually prefer AllocationAtHold, which does not drop to zero past the
// horizon.
func AllocationAt(allocs []Allocation, w int) float64 {
	i := sort.Search(len(allocs), func(i int) bool { return allocs[i].To > w })
	if i < len(allocs) && w >= allocs[i].From {
		return allocs[i].Amount
	}
	return 0
}

// AllocationAtHold is AllocationAt with hold-last semantics: windows past
// the planned horizon keep the final allocation instead of reading as an
// (impossible) zero reservation. Use it wherever an allocation becomes a
// provisioned capacity.
func AllocationAtHold(allocs []Allocation, w int) float64 {
	if n := len(allocs); n > 0 && w >= allocs[n-1].To {
		return allocs[n-1].Amount
	}
	return AllocationAt(allocs, w)
}

// Report scores a schedule against measured demand.
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

// Assess compares one pair's allocations against the measured series.
// Scoring is truncated to the planned horizon: windows the schedule does
// not cover are counted in Report.BeyondHorizon rather than scored as
// violations of an all-zero allocation.
func Assess(allocs []Allocation, actual []float64) Report {
	var rep Report
	n := len(actual)
	if h := Horizon(allocs); n > h {
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
	for w, d := range actual[:n] {
		a := AllocationAt(allocs, w)
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
	rep.Changes = len(allocs) - 1
	if rep.Changes < 0 {
		rep.Changes = 0
	}
	return rep
}
