package sim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/app"
)

// Queueing-theoretic latency model over the same component/cost structure
// the telemetry simulator uses. Each component is an M/M/1 station whose
// server speed is its CPU capacity; an API request's end-to-end latency is
// the sum of the sojourn times at every node of its invocation path. This
// is the substrate the paper's QoS framing rests on ("ensure the
// application can serve the traffic", "maintain QoS", §1): it converts a
// resource allocation into user-visible latency, which is what the
// schedule-based autoscaling extension scores against an SLO.

// ComponentLoad summarises one component's queueing state in a window.
type ComponentLoad struct {
	// ArrivalRate is visits per second.
	ArrivalRate float64
	// Utilization is the offered load ρ = λ/μ (can exceed 1 when
	// overloaded).
	Utilization float64
	// WaitMs is the mean queueing delay per visit in milliseconds
	// (infinite when ρ ≥ 1).
	WaitMs float64
	// ServiceMs is the mean service time per visit in milliseconds.
	ServiceMs float64
}

// APILatency summarises one endpoint's end-to-end latency in a window.
type APILatency struct {
	// MeanMs is the expected request latency in milliseconds.
	MeanMs float64
	// P95Ms approximates the 95th-percentile latency (exponential
	// sojourn approximation per station).
	P95Ms float64
	// NoQueueMs is the zero-load latency at the same capacities (pure
	// service time); MeanMs/NoQueueMs is the queueing inflation factor.
	NoQueueMs float64
	// Saturated marks that at least one component on the path is at or
	// beyond capacity, making the steady-state latency unbounded.
	Saturated bool
}

// LatencyModel evaluates request latency for an application under given
// per-component CPU capacities.
type LatencyModel struct {
	spec *app.Spec
	// caps holds effective CPU capacity per component, in millicores.
	caps map[string]float64
	// per-API weighted node lists, precomputed.
	apis map[string][]latNode
}

type latNode struct {
	component string
	cpuMs     float64 // expected mc-ms per request (template-weighted)
	visits    float64 // expected visits per request
}

// NewLatencyModel builds the model from a spec with its declared
// capacities; override individual components via SetCapacity (e.g. to score
// an autoscaling allocation).
func NewLatencyModel(spec *app.Spec) (*LatencyModel, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("sim: invalid spec: %w", err)
	}
	m := &LatencyModel{
		spec: spec,
		caps: make(map[string]float64, len(spec.Components)),
		apis: make(map[string][]latNode, len(spec.APIs)),
	}
	for _, c := range spec.Components {
		m.caps[c.Name] = c.CPUCapacity
	}
	for _, a := range spec.APIs {
		agg := make(map[string]*latNode)
		for _, t := range a.Templates {
			var rec func(n *app.PathNode)
			rec = func(n *app.PathNode) {
				ln, ok := agg[n.Component]
				if !ok {
					ln = &latNode{component: n.Component}
					agg[n.Component] = ln
				}
				ln.cpuMs += t.Prob * n.Cost.CPUms
				ln.visits += t.Prob
				for _, ch := range n.Children {
					rec(ch)
				}
			}
			rec(t.Root)
		}
		nodes := make([]latNode, 0, len(agg))
		for _, ln := range agg {
			nodes = append(nodes, *ln)
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i].component < nodes[j].component })
		m.apis[a.Name] = nodes
	}
	return m, nil
}

// SetCapacity overrides one component's CPU capacity (millicores).
func (m *LatencyModel) SetCapacity(component string, mcores float64) error {
	if _, ok := m.caps[component]; !ok {
		return fmt.Errorf("sim: unknown component %q", component)
	}
	if mcores <= 0 {
		return fmt.Errorf("sim: capacity must be positive")
	}
	m.caps[component] = mcores
	return nil
}

// Evaluate computes per-component loads and per-API latencies for one
// window of traffic (requests per API over windowSeconds).
func (m *LatencyModel) Evaluate(requests map[string]int, windowSeconds float64) (map[string]ComponentLoad, map[string]APILatency, error) {
	if windowSeconds <= 0 {
		return nil, nil, fmt.Errorf("sim: windowSeconds must be positive")
	}
	// Aggregate per-component arrival rate (visits/s) and CPU demand.
	arrivals := make(map[string]float64)
	demandMs := make(map[string]float64) // mc-ms per second
	for api, n := range requests {
		if n <= 0 {
			continue
		}
		nodes, ok := m.apis[api]
		if !ok {
			return nil, nil, fmt.Errorf("sim: unknown API %q", api)
		}
		rate := float64(n) / windowSeconds
		for _, ln := range nodes {
			arrivals[ln.component] += rate * ln.visits
			demandMs[ln.component] += rate * ln.cpuMs
		}
	}

	loads := make(map[string]ComponentLoad, len(arrivals))
	for comp, lam := range arrivals {
		cap := m.caps[comp]
		// Mean CPU work per visit in mc-ms.
		perVisit := 0.0
		if lam > 0 {
			perVisit = demandMs[comp] / lam
		}
		// Service time: perVisit millicore-milliseconds of work on a
		// server running at cap millicores → milliseconds of wall
		// time per visit.
		serviceMs := perVisit / cap
		mu := math.Inf(1)
		if serviceMs > 0 {
			mu = 1000 / serviceMs // visits per second
		}
		rho := lam / mu
		wait := math.Inf(1)
		if rho < 1 {
			// M/M/1 mean queueing delay: ρ/(μ−λ).
			wait = rho / (mu - lam) * 1000
		}
		loads[comp] = ComponentLoad{
			ArrivalRate: lam,
			Utilization: rho,
			WaitMs:      wait,
			ServiceMs:   serviceMs,
		}
	}

	lats := make(map[string]APILatency, len(requests))
	for api, n := range requests {
		if n <= 0 {
			continue
		}
		var lat APILatency
		rate95 := 0.0 // Σ 1/(μ−λ) per station, for the p95 approximation
		for _, ln := range m.apis[api] {
			ld := loads[ln.component]
			if ld.Utilization >= 1 {
				lat.Saturated = true
				lat.MeanMs = math.Inf(1)
				lat.P95Ms = math.Inf(1)
				break
			}
			// Per-visit sojourn = wait + service, scaled by the
			// expected visits of this API at the component.
			soj := (ld.WaitMs + ld.ServiceMs) * ln.visits
			lat.MeanMs += soj
			lat.NoQueueMs += ld.ServiceMs * ln.visits
			rate95 += soj // treat stations as exponential stages
		}
		if !lat.Saturated {
			// Exponential-sum tail approximation: p95 ≈ mean·ln20
			// for a single dominant stage, smoothly below for many
			// balanced stages. Use the conservative single-stage
			// bound.
			lat.P95Ms = lat.MeanMs * math.Log(20)
			_ = rate95
		}
		lats[api] = lat
	}
	return loads, lats, nil
}
