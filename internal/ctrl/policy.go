package ctrl

// The three policies the experiments compare. Proactive and Reactive share
// the planner (headroom, hysteresis, utilization target) — they differ only
// in the demand signal: a forecast of the *upcoming* interval versus an
// observation of the *previous* one. That isolation is deliberate: any
// ledger difference is attributable to foresight, not to tuning.

// Proactive provisions ahead of load from a per-window demand forecast —
// DeepRest's upper confidence bound over the projected traffic (see
// DemandForecast). The forecast for [from, to) is reduced to its peak and
// handed to the planner before the interval begins.
type Proactive struct {
	name     string
	forecast map[string][]float64
}

// NewProactive wraps a per-component demand forecast (millicores per
// window) as a policy. Feeding a run's realized Demand back in builds the
// perfect-forecast oracle.
func NewProactive(name string, forecast map[string][]float64) *Proactive {
	return &Proactive{name: name, forecast: forecast}
}

func (p *Proactive) Name() string { return p.name }

// Target returns the forecast peak per component over [from, to).
// Components whose forecast does not reach `from` hold.
func (p *Proactive) Target(from, to int, _ Observed) map[string]float64 {
	out := make(map[string]float64, len(p.forecast))
	for comp, series := range p.forecast {
		if from >= len(series) {
			continue
		}
		out[comp] = seriesPeak(series[from:min(to, len(series))])
	}
	return out
}

// Reactive is the classic threshold autoscaler every proactive system is
// measured against: when a component's observed peak utilization over the
// last interval leaves the [Down, Up] band, it is resized so that peak
// observed demand would have sat at the utilization target. It can only
// ever chase load — by at least one interval plus the actuation lag — and
// it carries the two defensive behaviors practical threshold scalers ship
// with, both of which cost money:
//
//   - surge: a saturated station reads 100% busy, so the observed peak is
//     only a lower bound on demand; the scaler multiplies it by Surge to
//     escape saturation in few steps (Kubernetes HPA and EC2 step policies
//     both overshoot this way), at the price of over-provisioning once the
//     true demand is finally visible;
//   - scale-down stabilization: descaling sizes against the peak over the
//     last StabilizeIntervals intervals, not just the most recent one, so a
//     short lull (or the trough before a returning peak) does not strand
//     the component undersized — at the price of holding peak capacity
//     into the valley.
type Reactive struct {
	// Up and Down are the utilization thresholds (fractions of current
	// capacity) that trigger a resize.
	Up, Down float64
	// Surge multiplies the observed peak when the component saturated
	// during the last interval (≤ 1 disables; conventional value 2).
	Surge float64
	// StabilizeIntervals is the scale-down lookback in intervals
	// (values < 1 mean 1: last interval only).
	StabilizeIntervals int
}

// NewReactive returns the conventional threshold autoscaler: resize outside
// the [0.3, 0.7] utilization band, 2× surge out of saturation, two-interval
// scale-down stabilization.
func NewReactive() *Reactive {
	return &Reactive{Up: 0.7, Down: 0.3, Surge: 2, StabilizeIntervals: 2}
}

func (r *Reactive) Name() string { return "reactive" }

func (r *Reactive) Target(from, to int, obs Observed) map[string]float64 {
	n := to - from
	stab := r.StabilizeIntervals
	if stab < 1 {
		stab = 1
	}
	out := make(map[string]float64)
	for comp, series := range obs.Demand {
		// All a backward-looker has is the observed tail — the target
		// range [from, to) lies beyond its telemetry.
		m := len(series)
		if m == 0 {
			continue // nothing observed yet
		}
		lo := m - n
		if lo < 0 {
			lo = 0
		}
		loStab := m - stab*n
		if loStab < 0 {
			loStab = 0
		}
		peak := seriesPeak(series[lo:m])
		cap := obs.Capacity[comp]
		if cap <= 0 {
			continue
		}
		switch util := peak / cap; {
		case util > r.Up:
			t := peak
			if r.Surge > 1 && peak >= cap*0.999 {
				t = peak * r.Surge
			}
			out[comp] = t
		case util < r.Down:
			out[comp] = seriesPeak(series[loStab:m])
		}
	}
	return out
}

// Static never scales: every component keeps the capacity it started with
// (the spec's declared sizing). It is the "cluster as deployed" reference
// and the probe run used to collect realized demand for the oracle.
type Static struct{}

func (Static) Name() string                                 { return "static" }
func (Static) Target(int, int, Observed) map[string]float64 { return nil }
