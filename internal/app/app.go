// Package app describes API-driven microservice applications: their
// components, their user-facing API endpoints, and — per endpoint — the
// distribution of invocation paths a request may take through the component
// graph together with the resources each visit consumes.
//
// A Spec is the ground truth an application would embody in a real
// deployment. The simulator in internal/sim executes a Spec to produce the
// two artifacts DeepRest consumes: distributed traces and resource metrics.
// DeepRest itself never reads a Spec; it must recover the API → resource
// relationships from telemetry alone, which is exactly the paper's setting.
package app

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Resource enumerates the resource types tracked per component. The paper's
// prototype considers CPU and memory in all components, and additionally
// write IOps, write throughput, and disk usage in stateful components.
type Resource int

// Resource kinds, in the order they appear in the paper's Figure 12 rows.
const (
	CPU       Resource = iota // CPU utilization, millicores
	Memory                    // memory utilization, MiB
	WriteIOps                 // write operations per second
	WriteTput                 // write throughput, KiB/s
	DiskUsage                 // cumulative disk usage, MiB
)

// AllResources lists every resource kind.
var AllResources = []Resource{CPU, Memory, WriteIOps, WriteTput, DiskUsage}

// StatefulOnly reports whether the resource is only meaningful for stateful
// components (marked black in the paper's heatmaps for stateless ones).
func (r Resource) StatefulOnly() bool {
	return r == WriteIOps || r == WriteTput || r == DiskUsage
}

// String returns the short human-readable name of the resource.
func (r Resource) String() string {
	switch r {
	case CPU:
		return "cpu"
	case Memory:
		return "memory"
	case WriteIOps:
		return "write_iops"
	case WriteTput:
		return "write_tput"
	case DiskUsage:
		return "disk_usage"
	default:
		return fmt.Sprintf("resource(%d)", int(r))
	}
}

// ParseResource is the inverse of Resource.String, used when decoding
// serialized telemetry.
func ParseResource(s string) (Resource, error) {
	for _, r := range AllResources {
		if r.String() == s {
			return r, nil
		}
	}
	return 0, fmt.Errorf("app: unknown resource %q", s)
}

// ParsePair parses a "Component/resource" key.
func ParsePair(s string) (Pair, error) {
	i := strings.LastIndex(s, "/")
	if i <= 0 || i == len(s)-1 {
		return Pair{}, fmt.Errorf("app: malformed pair %q", s)
	}
	r, err := ParseResource(s[i+1:])
	if err != nil {
		return Pair{}, err
	}
	return Pair{Component: s[:i], Resource: r}, nil
}

// Unit returns the measurement unit of the resource.
func (r Resource) Unit() string {
	switch r {
	case CPU:
		return "mcores"
	case Memory:
		return "MiB"
	case WriteIOps:
		return "ops/s"
	case WriteTput:
		return "KiB/s"
	case DiskUsage:
		return "MiB"
	default:
		return "?"
	}
}

// Component is one microservice component: a container or pod that can be
// scaled independently.
type Component struct {
	// Name identifies the component, e.g. "PostStorageMongoDB".
	Name string
	// Stateful marks database-like components that additionally expose
	// write IOps, write throughput, and disk usage.
	Stateful bool
	// BaseCPU is the idle CPU consumption in millicores.
	BaseCPU float64
	// BaseMemory is the idle memory footprint in MiB.
	BaseMemory float64
	// CPUCapacity is the nominal CPU capacity in millicores; as load
	// approaches capacity, queuing inflates consumption superlinearly.
	CPUCapacity float64
	// CacheMax bounds the cache-driven memory growth in MiB. Zero
	// disables cache modelling for the component.
	CacheMax float64
	// CacheDecay is the fraction of cached memory retained per window
	// when no reads refresh it (0..1, e.g. 0.98).
	CacheDecay float64
}

// Cost is the resource footprint of one visit to one (component, operation)
// node by one request. Zero-valued fields cost nothing.
type Cost struct {
	// CPUms is CPU time consumed, in millicore-milliseconds.
	CPUms float64
	// MemMiB is the transient working-set contribution in MiB-seconds
	// (it contributes to memory in proportion to the request rate).
	MemMiB float64
	// CacheMiB is cache growth attributed to the visit (reads populate
	// caches; this is what makes memory history-dependent).
	CacheMiB float64
	// WriteOps is the number of write operations issued.
	WriteOps float64
	// WriteKiB is the number of KiB written.
	WriteKiB float64
	// DiskMiB is the persistent storage added (monotone).
	DiskMiB float64
}

// Add returns the element-wise sum of two costs.
func (c Cost) Add(o Cost) Cost {
	return Cost{
		CPUms:    c.CPUms + o.CPUms,
		MemMiB:   c.MemMiB + o.MemMiB,
		CacheMiB: c.CacheMiB + o.CacheMiB,
		WriteOps: c.WriteOps + o.WriteOps,
		WriteKiB: c.WriteKiB + o.WriteKiB,
		DiskMiB:  c.DiskMiB + o.DiskMiB,
	}
}

// Scale returns the cost multiplied by f.
func (c Cost) Scale(f float64) Cost {
	return Cost{
		CPUms:    c.CPUms * f,
		MemMiB:   c.MemMiB * f,
		CacheMiB: c.CacheMiB * f,
		WriteOps: c.WriteOps * f,
		WriteKiB: c.WriteKiB * f,
		DiskMiB:  c.DiskMiB * f,
	}
}

// PathNode is one node in an invocation-path template: a visit to a
// (component, operation) pair with its per-visit cost and downstream calls.
type PathNode struct {
	// Component and Operation identify the node.
	Component string
	Operation string
	// Cost is consumed by Component each time a request visits the node.
	Cost Cost
	// Children are invoked by this node, in order.
	Children []*PathNode
}

// Node constructs a PathNode; children may be appended via Call.
func Node(component, operation string, cost Cost, children ...*PathNode) *PathNode {
	return &PathNode{Component: component, Operation: operation, Cost: cost, Children: children}
}

// Template is one possible invocation tree of an API endpoint, weighted by
// the probability a request follows it. Different payloads exercising
// different business logic (e.g. a post with or without media) are modelled
// as different templates of the same API.
type Template struct {
	// Prob is the probability a request to the API follows this tree.
	// Probabilities of an API's templates must sum to 1.
	Prob float64
	// Root is the invocation tree. Its component is the entry component.
	Root *PathNode
}

// API is one user-facing endpoint.
type API struct {
	// Name is the endpoint, e.g. "/composePost".
	Name string
	// Templates is the distribution of invocation trees.
	Templates []Template
	// PayloadCV is the coefficient of variation of per-request cost:
	// request contents scale every cost in the sampled template by a
	// random factor with mean 1 and this relative spread.
	PayloadCV float64
}

// Spec is a complete application description.
type Spec struct {
	// Name identifies the application.
	Name string
	// Components lists every component.
	Components []Component
	// APIs lists every user-facing endpoint.
	APIs []API
}

// Component returns the component with the given name.
func (s *Spec) Component(name string) (Component, bool) {
	for _, c := range s.Components {
		if c.Name == name {
			return c, true
		}
	}
	return Component{}, false
}

// API returns the API with the given name.
func (s *Spec) API(name string) (API, bool) {
	for _, a := range s.APIs {
		if a.Name == name {
			return a, true
		}
	}
	return API{}, false
}

// ResourcePairs enumerates every (component, resource) pair the telemetry
// layer tracks for this application: CPU and memory for all components plus
// the storage resources for stateful ones. The social network yields 76
// pairs over 29 components and the hotel reservation 54 over 18, matching
// the paper's experiment setup.
func (s *Spec) ResourcePairs() []Pair {
	var out []Pair
	for _, c := range s.Components {
		out = append(out, Pair{c.Name, CPU}, Pair{c.Name, Memory})
		if c.Stateful {
			out = append(out,
				Pair{c.Name, WriteIOps},
				Pair{c.Name, WriteTput},
				Pair{c.Name, DiskUsage})
		}
	}
	return out
}

// Pair identifies one estimation target: a resource of a component.
type Pair struct {
	Component string
	Resource  Resource
}

// String renders the pair as "Component/resource".
func (p Pair) String() string { return p.Component + "/" + p.Resource.String() }

// SortByName sorts ps by name (String) and returns the names in that order.
func SortByName(ps []Pair) []string {
	type named struct {
		name string
		p    Pair
	}
	ns := make([]named, len(ps))
	for i, p := range ps {
		ns[i] = named{p.String(), p}
	}
	slices.SortFunc(ns, func(a, b named) int { return strings.Compare(a.name, b.name) })
	names := make([]string, len(ps))
	for i, n := range ns {
		ps[i], names[i] = n.p, n.name
	}
	return names
}

// Validate checks internal consistency of the spec: component parameters are
// finite and non-negative, template probabilities sum to 1 per API, every
// referenced component is declared, per-visit costs are non-negative, storage
// costs only land on stateful components, and no component or API shares a
// name. Errors name the offending component or API (and template index) so a
// failure in a large spec is actionable.
func (s *Spec) Validate() error {
	comps := make(map[string]Component, len(s.Components))
	for _, c := range s.Components {
		if c.Name == "" {
			return fmt.Errorf("app %s: component with empty name", s.Name)
		}
		if _, dup := comps[c.Name]; dup {
			return fmt.Errorf("app %s: duplicate component %q", s.Name, c.Name)
		}
		if err := c.validate(); err != nil {
			return fmt.Errorf("app %s: component %q: %w", s.Name, c.Name, err)
		}
		comps[c.Name] = c
	}
	seen := make(map[string]bool, len(s.APIs))
	for _, a := range s.APIs {
		if a.Name == "" {
			return fmt.Errorf("app %s: API with empty name", s.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("app %s: duplicate API %q", s.Name, a.Name)
		}
		seen[a.Name] = true
		if len(a.Templates) == 0 {
			return fmt.Errorf("app %s: API %q has no templates", s.Name, a.Name)
		}
		if a.PayloadCV < 0 || !isFinite(a.PayloadCV) {
			return fmt.Errorf("app %s: API %q has invalid payload CV %v", s.Name, a.Name, a.PayloadCV)
		}
		sum := 0.0
		for ti, t := range a.Templates {
			if t.Prob < 0 || !isFinite(t.Prob) {
				return fmt.Errorf("app %s: API %q template %d has invalid probability %v", s.Name, a.Name, ti, t.Prob)
			}
			sum += t.Prob
			if t.Root == nil {
				return fmt.Errorf("app %s: API %q template %d has nil root", s.Name, a.Name, ti)
			}
			if err := validateNode(s.Name, a.Name, ti, t.Root, comps); err != nil {
				return err
			}
		}
		if sum < 0.999 || sum > 1.001 {
			return fmt.Errorf("app %s: API %q template probabilities sum to %.4f, want 1", s.Name, a.Name, sum)
		}
	}
	return nil
}

// validate checks one component's scalar parameters.
func (c Component) validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"base CPU", c.BaseCPU},
		{"base memory", c.BaseMemory},
		{"CPU capacity", c.CPUCapacity},
		{"cache max", c.CacheMax},
	} {
		if f.v < 0 || !isFinite(f.v) {
			return fmt.Errorf("negative %s %v", f.name, f.v)
		}
	}
	if c.CacheDecay < 0 || c.CacheDecay > 1 || !isFinite(c.CacheDecay) {
		return fmt.Errorf("cache decay %v outside [0, 1]", c.CacheDecay)
	}
	return nil
}

func validateNode(app, api string, ti int, n *PathNode, comps map[string]Component) error {
	c, ok := comps[n.Component]
	if !ok {
		return fmt.Errorf("app %s: API %q template %d references undeclared component %q", app, api, ti, n.Component)
	}
	if field, v, ok := n.Cost.negative(); ok {
		return fmt.Errorf("app %s: API %q template %d: node %s/%s has negative %s %v",
			app, api, ti, n.Component, n.Operation, field, v)
	}
	if !c.Stateful && (n.Cost.WriteOps != 0 || n.Cost.WriteKiB != 0 || n.Cost.DiskMiB != 0) {
		return fmt.Errorf("app %s: API %q template %d puts storage cost on stateless component %q", app, api, ti, n.Component)
	}
	for _, ch := range n.Children {
		if err := validateNode(app, api, ti, ch, comps); err != nil {
			return err
		}
	}
	return nil
}

// negative returns the first invalid (negative or non-finite) cost field.
func (c Cost) negative() (field string, v float64, bad bool) {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"cpu_ms", c.CPUms},
		{"mem_mib", c.MemMiB},
		{"cache_mib", c.CacheMiB},
		{"write_ops", c.WriteOps},
		{"write_kib", c.WriteKiB},
		{"disk_mib", c.DiskMiB},
	} {
		if f.v < 0 || !isFinite(f.v) {
			return f.name, f.v, true
		}
	}
	return "", 0, false
}

// isFinite reports whether v is neither NaN nor infinite.
func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// Toy returns a deliberately tiny three-component application used by unit
// tests: a gateway, one service, and one database, with a read API and a
// write API whose resource footprints are easy to reason about by hand. The
// bundled applications are topology documents (internal/topo); Toy is Go so
// that packages below topo can test against a spec.
func Toy() *Spec {
	s := &Spec{
		Name: "toy",
		Components: []Component{
			{Name: "Gateway", BaseCPU: 5, BaseMemory: 50, CPUCapacity: 40},
			{Name: "Service", BaseCPU: 5, BaseMemory: 80, CPUCapacity: 48},
			{Name: "DB", Stateful: true, BaseCPU: 8, BaseMemory: 150, CPUCapacity: 60, CacheMax: 200, CacheDecay: 0.99},
		},
		APIs: []API{
			{
				Name:      "/read",
				PayloadCV: 0.10,
				Templates: []Template{
					{Prob: 1.0, Root: Node("Gateway", "read", Cost{CPUms: 300, MemMiB: 0.08},
						Node("Service", "read", Cost{CPUms: 900, MemMiB: 0.25},
							Node("DB", "find", Cost{CPUms: 1100, MemMiB: 0.20, CacheMiB: 0.010})))},
				},
			},
			{
				Name:      "/write",
				PayloadCV: 0.10,
				Templates: []Template{
					{Prob: 1.0, Root: Node("Gateway", "write", Cost{CPUms: 320, MemMiB: 0.08},
						Node("Service", "write", Cost{CPUms: 1000, MemMiB: 0.28},
							Node("DB", "insert", Cost{CPUms: 1400, MemMiB: 0.24, WriteOps: 5, WriteKiB: 10, DiskMiB: 0.008})))},
				},
			},
		},
	}
	return s
}
