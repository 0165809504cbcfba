// Package ctrl closes the provisioning loop the paper's §2 positions
// DeepRest for: instead of reacting to load after it arrives (too late for
// resources that take time to provision), an estimate-driven autoscaler
// resizes components *ahead* of load from DeepRest's forecast of the
// projected traffic.
//
// The loop runs inside the simulator: each scheduling interval a Policy
// proposes per-component demand targets, the allocation rule (headroom +
// bounded hysteresis, the rule Plan applies offline) turns them into
// allocations, and the resulting capacities are actuated into
// the queueing latency model after a configurable provisioning lag. Two
// ledgers are charged every window:
//
//   - SLO violation minutes — windows where any API's modeled latency
//     breaches the SLO (queueing inflation above MaxInflation, absolute
//     p95 above SLOMs, or a saturated station), in minutes;
//   - resource-hours — the provisioned capacity integrated over time, in
//     core-hours.
//
// This is the trade every operator prices: violation minutes are the QoS
// cost of under-provisioning, resource-hours the dollar cost of headroom.
// Crash and throttle faults from a faults.Schedule perturb the effective
// capacities, so the same loop scores degraded-infrastructure scenarios.
package ctrl

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/app"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Config tunes the control loop.
type Config struct {
	// IntervalWindows is the scheduling cadence: one capacity decision
	// (one Plan allocation) per this many windows.
	IntervalWindows int
	// LagWindows is the actuation lag: a decision made at an interval
	// boundary takes effect this many windows later, modeling the time
	// real provisioning takes (pod scheduling, warm-up). Both proactive
	// and reactive policies pay it; only a proactive policy can plan
	// around it.
	LagWindows int
	// UtilTarget sizes capacity from planned demand: capacity =
	// allocation / UtilTarget (the standard utilization-target rule;
	// default 0.5).
	UtilTarget float64
	// Headroom and MinChange parameterize the allocation rule Run and
	// Plan share (fractional margin above the demand target, hysteresis
	// dead-band).
	Headroom  float64
	MinChange float64
	// MaxInflation is the scale-free SLO: a window violates when any
	// API's mean latency exceeds MaxInflation × its zero-load latency
	// (3.0 ≡ "queueing wait ≤ 2× service time"). Saturation always
	// violates.
	MaxInflation float64
	// SLOMs optionally adds an absolute SLO: any API p95 above this many
	// milliseconds violates. 0 disables the absolute check.
	SLOMs float64
	// MinCapacity floors every actuated capacity (millicores), so a
	// zero-demand forecast cannot descale a component to nothing.
	MinCapacity float64
	// Metrics optionally records loop telemetry (nil-safe).
	Metrics *obs.Registry
}

// DefaultConfig returns conventional loop parameters: hourly-scale
// reservations at a 50% utilization target with 10% headroom, one window
// of actuation lag, and the wait ≤ 2× service SLO.
func DefaultConfig() Config {
	return Config{
		IntervalWindows: 12,
		LagWindows:      1,
		UtilTarget:      0.5,
		Headroom:        0.10,
		MinChange:       0.05,
		MaxInflation:    3,
		MinCapacity:     1,
	}
}

func (c Config) validate() error {
	if err := c.validatePlan(); err != nil {
		return err
	}
	if c.LagWindows < 0 {
		return fmt.Errorf("ctrl: negative LagWindows")
	}
	if c.UtilTarget <= 0 || c.UtilTarget > 1 {
		return fmt.Errorf("ctrl: UtilTarget must be in (0, 1]")
	}
	if c.MaxInflation <= 1 && c.SLOMs <= 0 {
		return fmt.Errorf("ctrl: need MaxInflation > 1 or SLOMs > 0 for a meaningful SLO")
	}
	return nil
}

// Env is the simulated environment one loop run plays against.
type Env struct {
	// Spec is the application; unmanaged components keep its declared
	// capacities.
	Spec *app.Spec
	// Traffic is the realized per-window API traffic the loop serves.
	Traffic *workload.Traffic
	// Components lists the managed components (resized and charged for).
	Components []string
	// Faults optionally perturbs effective capacities (crash, throttle).
	// Allocated capacity is still charged during a fault — the operator
	// pays for the reservation whether or not the node delivers it.
	Faults *faults.Schedule
}

// Observed is the feedback a Policy sees at a decision boundary: everything
// a real control plane would have from its metrics pipeline, nothing more.
type Observed struct {
	// Demand is the realized per-component CPU demand (millicores) for
	// every completed window, as inferred from utilization telemetry: a
	// saturated station reads 100% busy, so observed demand is capped at
	// the effective capacity — exactly the blindness that makes reactive
	// scaling slow to size deep overloads.
	Demand map[string][]float64
	// Capacity is the currently actuated capacity per managed component.
	Capacity map[string]float64
}

// Policy proposes, at each interval boundary, the demand (millicores) each
// managed component should be provisioned for over [from, to) — the window
// range the decision will actually serve, which starts one provisioning lag
// after the decision itself. Observed never extends to from: the windows in
// between are the future the policy must bridge, by forecast or by guess.
// Components missing from the result hold their current capacity.
type Policy interface {
	Name() string
	Target(from, to int, obs Observed) map[string]float64
}

// Ledger accumulates one run's SLO and cost accounting.
type Ledger struct {
	// ViolationMinutes is the total time any API was outside its SLO.
	ViolationMinutes float64
	// ViolationWindows counts the violating windows behind those minutes.
	ViolationWindows int
	// WindowsScored is the number of evaluated windows.
	WindowsScored int
	// ResourceHours is the provisioned capacity of the managed
	// components integrated over the run, in core-hours.
	ResourceHours float64
	// ScaleOps counts applied capacity changes (provisioning churn).
	ScaleOps int
	// ByAPI attributes violation minutes to the APIs that breached.
	ByAPI map[string]float64
}

// Result is one policy's run outcome.
type Result struct {
	Policy string
	Ledger Ledger
	// Demand is the realized per-component demand series the loop
	// observed — feed it to NewProactive to build the perfect-forecast
	// oracle for the same traffic.
	Demand map[string][]float64
}

// crashedCapacity stands in for a crashed component's capacity: small
// enough that any visit saturates the station, positive so the latency
// model accepts it.
const crashedCapacity = 1e-6

// Run plays one policy over the environment and returns its ledgers.
func Run(env Env, cfg Config, pol Policy) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	if env.Traffic == nil || len(env.Traffic.Windows) == 0 {
		return Result{}, fmt.Errorf("ctrl: no traffic to serve")
	}
	if env.Traffic.WindowSeconds <= 0 {
		return Result{}, fmt.Errorf("ctrl: traffic has no window duration")
	}
	if len(env.Components) == 0 {
		return Result{}, fmt.Errorf("ctrl: no managed components")
	}
	model, err := sim.NewLatencyModel(env.Spec)
	if err != nil {
		return Result{}, err
	}

	comps := append([]string(nil), env.Components...)
	sort.Strings(comps)
	specCap := make(map[string]float64, len(env.Spec.Components))
	for _, c := range env.Spec.Components {
		specCap[c.Name] = c.CPUCapacity
	}
	caps := make(map[string]float64, len(comps))
	planners := make(map[string]*planner, len(comps))
	for _, comp := range comps {
		base, ok := specCap[comp]
		if !ok {
			return Result{}, fmt.Errorf("ctrl: unknown component %q", comp)
		}
		caps[comp] = base
		planners[comp] = &planner{headroom: cfg.Headroom, minChange: cfg.MinChange}
	}

	led := Ledger{ByAPI: make(map[string]float64)}
	demand := make(map[string][]float64, len(comps))
	pending := make(map[int]map[string]float64)
	windowMin := env.Traffic.WindowSeconds / 60
	windowHours := env.Traffic.WindowSeconds / 3600

	for w, reqs := range env.Traffic.Windows {
		// Decision boundary: plan the interval this decision will serve.
		// The target range starts where the decision lands (after the
		// provisioning lag) — a forecast-driven policy reads its forecast
		// there and covers the interval exactly; a backward-looking
		// policy has nothing to read there, which is the point.
		if w%cfg.IntervalWindows == 0 {
			from := w + cfg.LagWindows
			targets := pol.Target(from, from+cfg.IntervalWindows, Observed{Demand: demand, Capacity: caps})
			change := make(map[string]float64)
			for _, comp := range comps {
				t, ok := targets[comp]
				if !ok || math.IsNaN(t) || t < 0 {
					continue // hold current capacity
				}
				c := planners[comp].next(t) / cfg.UtilTarget
				if c < cfg.MinCapacity {
					c = cfg.MinCapacity
				}
				change[comp] = c
			}
			if len(change) > 0 {
				at := w + cfg.LagWindows
				if pending[at] == nil {
					pending[at] = change
				} else {
					for comp, c := range change {
						pending[at][comp] = c
					}
				}
			}
		}
		// Actuate decisions whose provisioning lag has elapsed.
		if nc, ok := pending[w]; ok {
			for comp, c := range nc {
				if caps[comp] != c {
					led.ScaleOps++
				}
				caps[comp] = c
			}
			delete(pending, w)
		}

		// Effective capacities: allocation for managed components, spec
		// for the rest, both degraded by any active fault.
		for _, c := range env.Spec.Components {
			eff, managed := caps[c.Name]
			if !managed {
				eff = c.CPUCapacity
			}
			if env.Faults != nil {
				if env.Faults.Crashed(c.Name, w) {
					eff = crashedCapacity
				} else {
					eff *= env.Faults.CPUFactor(c.Name, w)
				}
			}
			if eff < crashedCapacity {
				eff = crashedCapacity
			}
			if err := model.SetCapacity(c.Name, eff); err != nil {
				return Result{}, err
			}
		}

		loads, lats, err := model.Evaluate(reqs, env.Traffic.WindowSeconds)
		if err != nil {
			return Result{}, err
		}
		violated := false
		for api, lat := range lats {
			bad := lat.Saturated ||
				(cfg.MaxInflation > 1 && lat.NoQueueMs > 0 && lat.MeanMs > cfg.MaxInflation*lat.NoQueueMs) ||
				(cfg.SLOMs > 0 && lat.P95Ms > cfg.SLOMs)
			if bad {
				violated = true
				led.ByAPI[api] += windowMin
			}
		}
		if violated {
			led.ViolationWindows++
			led.ViolationMinutes += windowMin
		}
		led.WindowsScored++

		for _, comp := range comps {
			led.ResourceHours += caps[comp] / 1000 * windowHours
			// Observe demand through the utilization telemetry a real
			// autoscaler would have (capped at 100% busy).
			eff := caps[comp]
			if env.Faults != nil {
				if env.Faults.Crashed(comp, w) {
					eff = crashedCapacity
				} else {
					eff *= env.Faults.CPUFactor(comp, w)
				}
			}
			rho := loads[comp].Utilization
			if rho > 1 {
				rho = 1
			}
			demand[comp] = append(demand[comp], rho*eff)
		}
	}

	if cfg.Metrics != nil {
		m := cfg.Metrics
		m.CounterVec("deeprest_ctrl_scale_ops_total",
			"Capacity changes applied by the autoscale control loop.", "policy").
			With(pol.Name()).Add(uint64(led.ScaleOps))
		m.CounterVec("deeprest_ctrl_windows_scored_total",
			"Windows evaluated by the autoscale control loop.", "policy").
			With(pol.Name()).Add(uint64(led.WindowsScored))
		m.GaugeVec("deeprest_ctrl_violation_minutes",
			"SLO violation minutes charged in the last control-loop run.", "policy").
			With(pol.Name()).Set(led.ViolationMinutes)
		m.GaugeVec("deeprest_ctrl_resource_hours",
			"Core-hours provisioned in the last control-loop run.", "policy").
			With(pol.Name()).Set(led.ResourceHours)
	}

	return Result{Policy: pol.Name(), Ledger: led, Demand: demand}, nil
}
