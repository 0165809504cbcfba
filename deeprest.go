// Package deeprest is the public API of this DeepRest reproduction: deep,
// API-aware resource estimation for interactive microservices (Chow et al.,
// EuroSys '22).
//
// DeepRest learns, directly from production telemetry (distributed traces
// plus resource metrics), how each API endpoint of a microservice
// application consumes each resource of each component. A learned System
// answers two kinds of queries:
//
//   - resource allocation: "how much CPU / memory / write IOps / disk will
//     this hypothetical API traffic need?" — including traffic the
//     application has never served (more users, different API mixes,
//     different shapes);
//   - application sanity checks: "is the utilization we measured justified
//     by the traffic we actually served?" — flagging ransomware,
//     cryptojacking, and leaks whose consumption no API traffic explains.
//
// The package re-exports the stable surface of the internal implementation
// packages; see the examples directory for end-to-end usage, DESIGN.md for
// the architecture, and EXPERIMENTS.md for the paper-reproduction results.
package deeprest

import (
	"io"

	"repro/internal/anomaly"
	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Telemetry data model (what DeepRest consumes).
type (
	// Span is one operation performed by one component while serving a
	// request; spans form trees.
	Span = trace.Span
	// Trace is one recorded API request: endpoint plus span tree.
	Trace = trace.Trace
	// Batch groups identical traces within one scrape window.
	Batch = trace.Batch
	// Pair identifies one estimation target: a resource of a component.
	Pair = app.Pair
	// Resource enumerates the tracked resource kinds.
	Resource = app.Resource
	// TelemetryServer stores windows of traces and metrics.
	TelemetryServer = telemetry.Server
)

// Resource kinds.
const (
	CPU       = app.CPU
	Memory    = app.Memory
	WriteIOps = app.WriteIOps
	WriteTput = app.WriteTput
	DiskUsage = app.DiskUsage
)

// Learning and querying.
type (
	// System is a learned DeepRest instance.
	System = core.System
	// Options configures the learning phase.
	Options = core.Options
	// Config is the neural estimator configuration.
	Config = estimator.Config
	// Estimate is a per-pair utilization prediction with a confidence
	// interval.
	Estimate = estimator.Estimate
	// Model is the trained multi-expert estimator.
	Model = estimator.Model
	// Synthesizer converts hypothetical traffic into synthetic traces.
	Synthesizer = synth.Synthesizer
	// Event is one detected anomaly.
	Event = anomaly.Event
	// Detector tunes sanity-check thresholds.
	Detector = anomaly.Detector
)

// Traffic description.
type (
	// Traffic is a multivariate requests-per-window time series.
	Traffic = workload.Traffic
	// Program generates Traffic from shapes, mixes, and scales.
	Program = workload.Program
	// DaySpec describes one day of a Program.
	DaySpec = workload.DaySpec
	// Mix is an API composition.
	Mix = workload.Mix
)

// NewTelemetryServer returns an empty telemetry store with the given scrape
// window duration in seconds.
func NewTelemetryServer(windowSeconds float64) *TelemetryServer {
	return telemetry.NewServer(windowSeconds)
}

// DefaultOptions returns learning options with the default estimator
// configuration.
func DefaultOptions() Options { return core.DefaultOptions() }

// DefaultConfig returns the default neural estimator configuration.
func DefaultConfig() Config { return estimator.DefaultConfig() }

// Learn runs the application learning phase over windows [from, to) of a
// telemetry server.
func Learn(ts *TelemetryServer, from, to int, opts Options) (*System, error) {
	return core.Learn(ts, from, to, opts, nil)
}

// LearnFromData learns from in-memory telemetry: per-window trace batches
// and aligned per-pair utilization series.
func LearnFromData(windows [][]Batch, usage map[Pair][]float64, opts Options) (*System, error) {
	return core.LearnFromData(windows, usage, opts)
}

// LoadModel deserializes an estimator model saved with System.Save or
// Model.Save.
func LoadModel(r io.Reader) (*Model, error) { return estimator.Load(r) }

// NewDetector returns a sanity-check detector with default thresholds.
func NewDetector() *Detector { return anomaly.NewDetector() }

// Simulation harness (the paper's testbed stand-in), exported so library
// users can reproduce the evaluation or prototype against the bundled
// DeathStarBench-style applications without a cluster.
type (
	// AppSpec describes a microservice application for the simulator.
	AppSpec = app.Spec
	// Cluster is a simulated deployment of an AppSpec.
	Cluster = sim.Cluster
	// SimRun is the telemetry of a simulated traffic program.
	SimRun = sim.Run
)

// Traffic shapes and attack injectors, re-exported for building evaluation
// scenarios against the simulator.
type (
	// TwoPeak is the default diurnal shape (two peak hours per day).
	TwoPeak = workload.TwoPeak
	// Flat is a constant-intensity shape.
	Flat = workload.Flat
	// OnePeak has a single daily peak.
	OnePeak = workload.OnePeak
	// Ransomware injects CPU + write load on a stateful component.
	Ransomware = sim.Ransomware
	// Cryptojack injects sustained CPU theft.
	Cryptojack = sim.Cryptojack
	// MemoryLeak injects steadily growing memory.
	MemoryLeak = sim.MemoryLeak
)

// UniformProgram returns a traffic program repeating one day specification.
func UniformProgram(days int, spec DaySpec) Program {
	return workload.Uniform(days, spec)
}

// SocialNetwork returns the bundled DeathStarBench-style social network
// application (29 components, 11 APIs).
func SocialNetwork() *AppSpec { return bundledApp("social") }

// HotelReservation returns the bundled hotel reservation application
// (18 components, 4 APIs).
func HotelReservation() *AppSpec { return bundledApp("hotel") }

// MediaMicroservices returns the bundled movie-review application
// (19 components, 6 APIs).
func MediaMicroservices() *AppSpec { return bundledApp("media") }

// bundledApp parses a bundled application's embedded topology document. The
// documents are part of the build and tested to parse, so an error here is a
// broken build, not bad input.
func bundledApp(name string) *AppSpec {
	spec, _, err := topo.Resolve(name)
	if err != nil {
		panic(err)
	}
	return spec
}

// NewCluster deploys an application spec in the simulator.
func NewCluster(spec *AppSpec, seed int64) (*Cluster, error) {
	return sim.NewCluster(spec, seed)
}

// Topology as data: the declarative topology DSL and the seeded generator
// (see internal/topo), so applications can be loaded from JSON documents or
// synthesized at production scale instead of hand-coded in Go.
type (
	// Topology is a topology DSL document: an AppSpec plus per-API
	// traffic weights.
	Topology = topo.Document
	// TopologyConfig sizes a generated topology.
	TopologyConfig = topo.Config
	// TopologyError locates a problem in a topology document by line and
	// JSON path.
	TopologyError = topo.ParseError
)

// ParseTopology strictly decodes and validates a topology DSL document.
func ParseTopology(data []byte) (*Topology, error) { return topo.Parse(data) }

// EncodeTopology renders a document as canonical DSL JSON; the encoding
// round-trips through ParseTopology bit-identically.
func EncodeTopology(d *Topology) []byte { return topo.Encode(d) }

// GenerateTopology synthesizes a production-like topology from a seed and
// size knobs; the same config always yields the same document.
func GenerateTopology(cfg TopologyConfig) *Topology { return topo.Generate(cfg) }

// TopologyFromSpec lifts an application spec (plus an optional traffic mix)
// into a DSL document.
func TopologyFromSpec(spec *AppSpec, mix Mix) *Topology { return topo.FromSpec(spec, mix) }

// ResolveApp turns a CLI-style application argument — social|hotel|media,
// "@file.json", or "gen:seed=N,components=N" — into a spec and default mix.
func ResolveApp(arg string) (*AppSpec, Mix, error) { return topo.Resolve(arg) }
