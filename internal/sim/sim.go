// Package sim executes an application Spec as a discrete-time microservice
// cluster: it turns API traffic into the two artifacts DeepRest consumes —
// distributed traces and per-window resource metrics.
//
// The simulator stands in for the paper's Kubernetes testbed (DeathStarBench
// on minikube with Jaeger and Prometheus). It preserves every behaviour the
// estimation problem depends on:
//
//   - each request samples one of its API's invocation-path templates, so
//     the same endpoint triggers components and consumes resources in
//     different ways per request;
//   - CPU consumption inflates superlinearly as load approaches a
//     component's capacity (queuing), so 2× traffic can cost more than 2×
//     CPU — the effect the paper's takeaway in §5.3 calls out;
//   - memory has a history-dependent cache term (reads populate caches that
//     decay slowly), which is what makes memory the hardest resource in the
//     paper's Figure 12;
//   - disk usage grows monotonically with writes;
//   - all measurements carry multiplicative scrape noise.
//
// Attack injectors add resource consumption that the API traffic cannot
// justify, reproducing the ransomware and cryptojacking scenarios of §5.4.
//
// Fault injection (internal/faults) perturbs the cluster the other way:
// instead of unexplained extra consumption, it produces the partial
// failures a real deployment suffers — component crashes that fail requests
// and cold-start caches, CPU throttles and latency spikes that amplify
// queuing, trace collectors that drop or duplicate spans, metric scrapes
// that go missing, and clock skew that desynchronises traces from metrics.
// All fault decisions derive from the schedule's own seed, so the same
// cluster seed + fault spec emits bit-identical telemetry.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/app"
	"repro/internal/faults"
	"repro/internal/trace"
	"repro/internal/workload"
)

// QueueFactor is the default queuing-inflation coefficient: at full nominal
// capacity, CPU consumption is (1 + QueueFactor)× the raw demand.
const QueueFactor = 0.8

// MeasurementNoiseCV is the default multiplicative scrape-noise coefficient.
const MeasurementNoiseCV = 0.02

// templateInfo caches, per API template, the immutable span tree and the
// per-component aggregated cost of one request following the template.
type templateInfo struct {
	prob  float64
	spans *trace.Span
	costs map[string]app.Cost
}

// Cluster is a running deployment of an application Spec. It is stateful:
// caches warm up and disks fill over simulated time, so consecutive runs
// continue from where the previous one stopped — exactly like a production
// environment observed by a telemetry server.
type Cluster struct {
	spec      *app.Spec
	rng       *rand.Rand
	noiseCV   float64
	queue     float64
	templates map[string][]templateInfo
	cacheMiB  map[string]float64
	diskMiB   map[string]float64
	attacks   []Attack
	window    int

	// faults is the armed fault schedule (nil = healthy cluster); pending
	// buffers trace batches the clock-skew injector has delayed, keyed by
	// their delivery window.
	faults  *faults.Schedule
	pending map[int][]trace.Batch
}

// Option configures a Cluster.
type Option func(*Cluster)

// WithQueueFactor overrides the queuing-inflation coefficient.
func WithQueueFactor(q float64) Option {
	return func(c *Cluster) { c.queue = q }
}

// WithMeasurementNoise overrides the scrape-noise coefficient. Zero disables
// measurement noise, useful for exactness tests.
func WithMeasurementNoise(cv float64) Option {
	return func(c *Cluster) { c.noiseCV = cv }
}

// SetFaults arms (or, with nil, disarms) a fault schedule, at deployment or
// mid-run. Fault decisions are indexed by the cluster's global window
// counter, so a schedule armed late still fires at its spec'd windows.
func (c *Cluster) SetFaults(s *faults.Schedule) { c.faults = s }

// NewCluster deploys spec with the given random seed.
func NewCluster(spec *app.Spec, seed int64, opts ...Option) (*Cluster, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("sim: invalid spec: %w", err)
	}
	c := &Cluster{
		spec:      spec,
		rng:       rand.New(rand.NewSource(seed)),
		noiseCV:   MeasurementNoiseCV,
		queue:     QueueFactor,
		templates: make(map[string][]templateInfo),
		cacheMiB:  make(map[string]float64),
		diskMiB:   make(map[string]float64),
	}
	for _, o := range opts {
		o(c)
	}
	for _, a := range spec.APIs {
		infos := make([]templateInfo, len(a.Templates))
		for i, t := range a.Templates {
			infos[i] = templateInfo{
				prob:  t.Prob,
				spans: buildSpans(t.Root),
				costs: aggregateCosts(t.Root),
			}
		}
		c.templates[a.Name] = infos
	}
	return c, nil
}

func buildSpans(n *app.PathNode) *trace.Span {
	s := trace.NewSpan(n.Component, n.Operation)
	for _, ch := range n.Children {
		s.Children = append(s.Children, buildSpans(ch))
	}
	return s
}

func aggregateCosts(n *app.PathNode) map[string]app.Cost {
	out := make(map[string]app.Cost)
	var rec func(nd *app.PathNode)
	rec = func(nd *app.PathNode) {
		out[nd.Component] = out[nd.Component].Add(nd.Cost)
		for _, ch := range nd.Children {
			rec(ch)
		}
	}
	rec(n)
	return out
}

// Spec returns the deployed application spec.
func (c *Cluster) Spec() *app.Spec { return c.spec }

// Window returns the index of the next window to be simulated.
func (c *Cluster) Window() int { return c.window }

// Inject arms an attack. Attacks fire based on the cluster's global window
// counter.
func (c *Cluster) Inject(a Attack) { c.attacks = append(c.attacks, a) }

// Usage is a per-(component, resource) utilization map for one window.
type Usage map[app.Pair]float64

// WindowResult is the telemetry produced by one simulated window.
type WindowResult struct {
	// Batches are the traces of the window, run-length encoded.
	Batches []trace.Batch
	// Usage is the measured utilization per (component, resource) pair.
	Usage Usage
}

// NumRequests returns the number of requests the window served (batches
// expanded by their run-length counts).
func (wr WindowResult) NumRequests() int {
	return trace.TotalRequests(wr.Batches)
}

// NumSpans returns the number of spans the window's requests executed —
// the volume a real tracing backend would have ingested. Each batch
// contributes its template's span-tree size once per request.
func (wr WindowResult) NumSpans() int {
	return countSpans(wr.Batches)
}

func countSpans(batches []trace.Batch) int {
	n := 0
	for _, b := range batches {
		if b.Trace.Root != nil {
			n += b.Trace.Root.NumSpans() * b.Count
		}
	}
	return n
}

// Step simulates one window serving the given per-API request counts and
// returns its telemetry. windowSeconds is the window duration.
func (c *Cluster) Step(requests map[string]int, windowSeconds float64) (WindowResult, error) {
	if windowSeconds <= 0 {
		return WindowResult{}, fmt.Errorf("sim: windowSeconds must be positive, got %v", windowSeconds)
	}
	res := WindowResult{Usage: make(Usage)}
	// Demand accumulated from requests, per component.
	demand := make(map[string]app.Cost, len(c.spec.Components))

	apis := make([]string, 0, len(requests))
	for api := range requests {
		apis = append(apis, api)
	}
	sort.Strings(apis)

	for _, api := range apis {
		n := requests[api]
		if n <= 0 {
			continue
		}
		infos, ok := c.templates[api]
		if !ok {
			return WindowResult{}, fmt.Errorf("sim: unknown API %q", api)
		}
		spec, _ := c.spec.API(api)
		counts := c.multinomial(n, infos)
		for ti, cnt := range counts {
			if cnt == 0 {
				continue
			}
			if c.crashedOnPath(infos[ti].costs) {
				// Requests routed through a crashed component fail: no
				// trace is recorded and no resource demand accrues.
				continue
			}
			res.Batches = append(res.Batches, trace.Batch{
				Trace: trace.Trace{API: api, Root: infos[ti].spans},
				Count: cnt,
			})
			// Payload variation averages out over the batch: the
			// spread of the mean cost of cnt i.i.d. requests is
			// CV/sqrt(cnt).
			factor := 1.0
			if spec.PayloadCV > 0 {
				factor += spec.PayloadCV / math.Sqrt(float64(cnt)) * c.rng.NormFloat64()
				if factor < 0.2 {
					factor = 0.2
				}
			}
			for comp, cost := range infos[ti].costs {
				demand[comp] = demand[comp].Add(cost.Scale(float64(cnt) * factor))
			}
		}
	}

	for _, comp := range c.spec.Components {
		d := demand[comp.Name]

		if c.faults.Crashed(comp.Name, c.window) {
			// Container down: scrapes read zero and the cache restarts
			// cold, so the post-restart windows show the warm-up
			// transient a real redeploy would.
			c.cacheMiB[comp.Name] = 0
			c.zeroUsage(comp, res.Usage)
			continue
		}

		// CPU: raw demand in millicores plus queuing inflation. A CPU
		// throttle shrinks the effective capacity; a latency spike
		// amplifies the queuing coefficient — both inflate consumption
		// superlinearly, exactly like an overloaded real component.
		reqCPU := d.CPUms / (windowSeconds * 1000)
		if comp.CPUCapacity > 0 {
			capacity := comp.CPUCapacity * c.faults.CPUFactor(comp.Name, c.window)
			queue := c.queue * c.faults.LatencyFactor(comp.Name, c.window)
			reqCPU *= 1 + queue*(reqCPU/capacity)
		}
		cpu := comp.BaseCPU + reqCPU

		// Memory: idle footprint + working set proportional to request
		// rate + slowly-decaying cache.
		working := d.MemMiB / windowSeconds * 100
		cache := c.cacheMiB[comp.Name]
		if comp.CacheMax > 0 {
			decay := comp.CacheDecay
			if decay <= 0 || decay > 1 {
				decay = 0.99
			}
			cache = cache*decay + d.CacheMiB*(1-cache/comp.CacheMax)
			if cache > comp.CacheMax {
				cache = comp.CacheMax
			}
			if cache < 0 {
				cache = 0
			}
			c.cacheMiB[comp.Name] = cache
		}
		mem := comp.BaseMemory + working + cache

		res.Usage[app.Pair{Component: comp.Name, Resource: app.CPU}] = c.noisy(cpu)
		res.Usage[app.Pair{Component: comp.Name, Resource: app.Memory}] = c.noisy(mem)

		if comp.Stateful {
			iops := d.WriteOps / windowSeconds
			tput := d.WriteKiB / windowSeconds
			c.diskMiB[comp.Name] += d.DiskMiB
			res.Usage[app.Pair{Component: comp.Name, Resource: app.WriteIOps}] = c.noisy(iops)
			res.Usage[app.Pair{Component: comp.Name, Resource: app.WriteTput}] = c.noisy(tput)
			res.Usage[app.Pair{Component: comp.Name, Resource: app.DiskUsage}] = c.noisy(c.diskMiB[comp.Name])
		}

		if c.faults.ScrapeGapped(comp.Name, c.window) {
			// The scrape failed: the telemetry store sees a zero sample,
			// while the component's internal state (cache, disk) moves on.
			c.zeroUsage(comp, res.Usage)
		}
	}

	for _, a := range c.attacks {
		a.Apply(c.window, windowSeconds, res.Usage)
	}
	c.applyCollectorFaults(&res)
	c.window++
	return res, nil
}

// crashedOnPath reports whether any component a request template touches is
// currently crashed (such requests fail end to end).
func (c *Cluster) crashedOnPath(costs map[string]app.Cost) bool {
	if c.faults == nil {
		return false
	}
	for comp := range costs {
		if c.faults.Crashed(comp, c.window) {
			return true
		}
	}
	return false
}

// zeroUsage writes zero samples for every resource of comp — what the
// metrics backend records when a container is down or a scrape is lost.
func (c *Cluster) zeroUsage(comp app.Component, u Usage) {
	u[app.Pair{Component: comp.Name, Resource: app.CPU}] = 0
	u[app.Pair{Component: comp.Name, Resource: app.Memory}] = 0
	if comp.Stateful {
		u[app.Pair{Component: comp.Name, Resource: app.WriteIOps}] = 0
		u[app.Pair{Component: comp.Name, Resource: app.WriteTput}] = 0
		u[app.Pair{Component: comp.Name, Resource: app.DiskUsage}] = 0
	}
}

// applyCollectorFaults perturbs the window's emitted traces the way a lossy
// tracing backend would: dropped and duplicated spans change batch counts
// without touching the resources the requests actually consumed, and clock
// skew delays whole batches to a later delivery window.
func (c *Cluster) applyCollectorFaults(res *WindowResult) {
	if c.faults == nil {
		return
	}
	w := c.window
	kept := res.Batches[:0]
	for bi, b := range res.Batches {
		n := b.Count
		n -= c.faults.DroppedSpans(w, bi, b.Count)
		n += c.faults.DuplicatedSpans(w, bi, b.Count)
		if n <= 0 {
			continue
		}
		b.Count = n
		kept = append(kept, b)
	}
	res.Batches = kept
	if k := c.faults.Skew(w); k > 0 {
		if c.pending == nil {
			c.pending = make(map[int][]trace.Batch)
		}
		c.pending[w+k] = append(c.pending[w+k], res.Batches...)
		res.Batches = nil
	}
	if delayed, ok := c.pending[w]; ok {
		// Late batches surface ahead of the window's own: the collector
		// flushes its backlog in arrival order.
		res.Batches = append(delayed, res.Batches...)
		delete(c.pending, w)
	}
}

// noisy applies multiplicative scrape noise.
func (c *Cluster) noisy(v float64) float64 {
	if c.noiseCV == 0 {
		return v
	}
	out := v * (1 + c.noiseCV*c.rng.NormFloat64())
	if out < 0 {
		out = 0
	}
	return out
}

// multinomial splits n requests across templates proportionally to their
// probabilities with sampling noise, guaranteeing the counts sum to n.
func (c *Cluster) multinomial(n int, infos []templateInfo) []int {
	counts := make([]int, len(infos))
	remaining := n
	probLeft := 1.0
	for i := range infos {
		if i == len(infos)-1 {
			counts[i] = remaining
			break
		}
		p := infos[i].prob
		if probLeft <= 0 {
			break
		}
		cond := p / probLeft
		if cond > 1 {
			cond = 1
		}
		mean := float64(remaining) * cond
		sd := math.Sqrt(float64(remaining) * cond * (1 - cond))
		k := int(math.Round(mean + sd*c.rng.NormFloat64()))
		if k < 0 {
			k = 0
		}
		if k > remaining {
			k = remaining
		}
		counts[i] = k
		remaining -= k
		probLeft -= p
	}
	return counts
}

// Run is the telemetry of a multi-window simulation: what the telemetry
// server (Jaeger + Prometheus) would have recorded.
type Run struct {
	// Windows holds the trace batches of each window.
	Windows [][]trace.Batch
	// Usage holds, per (component, resource) pair, the utilization
	// time-series aligned with Windows.
	Usage map[app.Pair][]float64
	// WindowSeconds is the scrape window duration.
	WindowSeconds float64
	// WindowsPerDay is the day length in windows (informational).
	WindowsPerDay int
}

// Run simulates the full traffic program and collects its telemetry.
func (c *Cluster) Run(t *workload.Traffic) (*Run, error) {
	out := &Run{
		Usage:         make(map[app.Pair][]float64),
		WindowSeconds: t.WindowSeconds,
		WindowsPerDay: t.WindowsPerDay,
	}
	for _, p := range c.spec.ResourcePairs() {
		out.Usage[p] = make([]float64, 0, len(t.Windows))
	}
	for _, reqs := range t.Windows {
		wr, err := c.Step(reqs, t.WindowSeconds)
		if err != nil {
			return nil, err
		}
		out.Windows = append(out.Windows, wr.Batches)
		for p := range out.Usage {
			out.Usage[p] = append(out.Usage[p], wr.Usage[p])
		}
	}
	return out, nil
}

// Simulate deploys spec at clusterSeed, arms sched (nil leaves the cluster
// healthy), generates the program's traffic and serves it. It is the one way
// simulated telemetry is made: experiments, daemon bootstraps, the CLI and
// the test fixtures differ only in the program and the seeds they pass. The
// cluster is returned warm, so a caller can keep serving on it.
func Simulate(spec *app.Spec, prog workload.Program, clusterSeed int64, sched *faults.Schedule) (*Cluster, *workload.Traffic, *Run, error) {
	c, err := NewCluster(spec, clusterSeed)
	if err != nil {
		return nil, nil, nil, err
	}
	c.SetFaults(sched)
	traffic := prog.Generate()
	run, err := c.Run(traffic)
	if err != nil {
		return nil, nil, nil, err
	}
	return c, traffic, run, nil
}

// NumWindows returns the number of simulated windows in the run.
func (r *Run) NumWindows() int { return len(r.Windows) }

// Slice returns the run restricted to windows [from, to). The usage slices
// share backing arrays with the original.
func (r *Run) Slice(from, to int) *Run {
	out := &Run{
		Windows:       r.Windows[from:to],
		Usage:         make(map[app.Pair][]float64, len(r.Usage)),
		WindowSeconds: r.WindowSeconds,
		WindowsPerDay: r.WindowsPerDay,
	}
	for p, s := range r.Usage {
		out.Usage[p] = s[from:to]
	}
	return out
}
