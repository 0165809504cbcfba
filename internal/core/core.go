// Package core assembles DeepRest's end-to-end system (paper Figure 4):
// the application learning phase over production telemetry, and the two
// query modes —
//
//	Mode 1: hypothetical API traffic → trace synthesizer → feature
//	        extractor → estimator → resource-allocation plan;
//	Mode 2: real API traffic and traces → feature extractor → estimator →
//	        expected utilization → application sanity check.
//
// The package wires together the feature extractor (internal/features), the
// trace synthesizer (internal/synth), the multi-expert deep estimator
// (internal/estimator), and the sanity checker (internal/anomaly). It is
// the implementation behind the public deeprest package at the module root.
package core

import (
	"context"
	"fmt"
	"io"
	"log/slog"

	"repro/internal/anomaly"
	"repro/internal/app"
	"repro/internal/estimator"
	"repro/internal/estimator/infer"
	"repro/internal/features"
	"repro/internal/obs"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Options configures the application learning phase.
type Options struct {
	// Estimator carries the neural configuration; zero-value fields are
	// filled from estimator.DefaultConfig.
	Estimator estimator.Config
	// Pairs optionally restricts learning to a subset of
	// (component, resource) pairs; empty learns every pair the telemetry
	// recorded.
	Pairs []app.Pair
	// Anonymize, when true, hashes component, operation, and API names
	// before they enter the model — the paper's privacy-preserving
	// deployment mode for DeepRest-as-a-service.
	Anonymize bool
	// HashSalt salts the anonymisation.
	HashSalt string
	// SynthSeed drives trace synthesis for Mode-1 queries.
	SynthSeed int64
	// Metrics, when non-nil, receives self-instrumentation: per-epoch
	// training counters and loss/duration series here, plus pipeline,
	// telemetry, and HTTP metrics in the layers that share these Options.
	// Nil disables instrumentation at zero cost (every obs handle is a
	// nil-safe no-op).
	Metrics *obs.Registry
	// Logger, when non-nil, receives structured logs from the service and
	// pipeline layers (access lines, generation publishes, drift events).
	Logger *slog.Logger
	// Tracer, when non-nil, records stage spans (ingest, extract, score,
	// train, checkpoint, swap) across the layers that share these Options.
	// Nil disables stage tracing, like Metrics, at zero cost.
	Tracer *obs.SpanTracer
}

// DefaultOptions returns Options with the default estimator configuration.
func DefaultOptions() Options {
	return Options{Estimator: estimator.DefaultConfig(), SynthSeed: 11}
}

// System is a learned DeepRest instance for one application.
type System struct {
	opts   Options
	hasher *trace.Hasher
	model  *estimator.Model
	synth  *synth.Synthesizer

	// engine is the tape-free inference snapshot of model
	// (internal/estimator/infer), compiled when the system is built — i.e.
	// once per published generation, so serving reads never observe a
	// mixed-generation snapshot. When the compile was refused engine is nil,
	// engineErr says why, and every query returns that error.
	engine    *infer.Engine
	engineErr error

	// warm is whether the learn seeded at least one expert from the
	// previous model.
	warm bool
}

// trainStages times the stages of a learn — the estimator's three
// (estimator.StageTrunks, StagePeerStates, StageAttention) and the engine
// compile — as child spans of the span ctx carries and as one histogram, so
// "where did that generation's time go" reads off /debug/spans and /metrics.
// The returned function starts a stage and returns its end.
func trainStages(ctx context.Context, opts Options) func(span, phase string) (end func()) {
	return opts.Tracer.Stages(ctx, opts.Metrics.HistogramVec("deeprest_train_phase_seconds",
		"Wall-clock duration of one stage of building a generation: trunks (phase A over all experts), peer_states (frozen hidden trajectories), attention (phase B), compile (inference-engine snapshot).",
		obs.DurationBuckets, "phase"))
}

// compileEngine snapshots the trained model into the serving engine, as the
// stage "compile" under ctx's span. A refusal is counted and logged where an
// operator at the default level sees it; the registry then refuses to
// activate the system (see EngineErr).
func (s *System) compileEngine(ctx context.Context) {
	failures := s.opts.Metrics.Counter("deeprest_infer_compile_failures_total",
		"Generations whose inference-engine compile was refused; they are never activated.")
	end := trainStages(ctx, s.opts)("infer.compile", "compile")
	s.engine, s.engineErr = infer.Compile(s.model)
	end()
	if s.engineErr != nil {
		failures.Inc()
		if s.opts.Logger != nil {
			s.opts.Logger.Warn("inference engine compile failed; the system cannot serve",
				"pairs", len(s.model.Pairs), "err", s.engineErr)
		}
	}
}

// Warm reports whether the learn that built s resumed at least one
// expert from the previous model it was given.
func (s *System) Warm() bool { return s.warm }

// Engine returns the compiled inference engine, or nil when the compile was
// refused.
func (s *System) Engine() *infer.Engine { return s.engine }

// EngineErr reports why the engine compile was refused (nil when it was
// not). estimator.TrainWarm and Load output always compiles — every expert
// they build has the uniform shape infer.Compile checks.
func (s *System) EngineErr() error { return s.engineErr }

// Telemetry is the store a learn reads: the trace batches and the
// utilization series of a range of windows. *telemetry.Server is one.
type Telemetry interface {
	Traces(from, to int) ([][]trace.Batch, error)
	Metrics(from, to int) (map[app.Pair][]float64, error)
}

// Learn runs the application learning phase over windows [from, to) of the
// telemetry store: it builds the invocation-path feature space, learns
// Prob(path | API) for the trace synthesizer, and trains one DNN expert per
// (component, resource) pair. A non-nil prev is the model the new one
// resumes from (estimator.TrainWarm): this is how the continuous-learning
// pipeline retrains a generation over a sliding window.
func Learn(src Telemetry, from, to int, opts Options, prev *estimator.Model) (*System, error) {
	windows, err := src.Traces(from, to)
	if err != nil {
		return nil, fmt.Errorf("core: fetch traces: %w", err)
	}
	usage, err := src.Metrics(from, to)
	if err != nil {
		return nil, fmt.Errorf("core: fetch metrics: %w", err)
	}
	return learn(windows, usage, opts, prev)
}

// LearnFromData is Learn for callers that already hold the telemetry in
// memory (tests, replay from files).
func LearnFromData(windows [][]trace.Batch, usage map[app.Pair][]float64, opts Options) (*System, error) {
	return learn(windows, usage, opts, nil)
}

// learn restricts usage to opts.Pairs and trains a system over it, warm from
// prev when it is non-nil.
func learn(windows [][]trace.Batch, usage map[app.Pair][]float64, opts Options, prev *estimator.Model) (*System, error) {
	if len(opts.Pairs) > 0 {
		sub := make(map[app.Pair][]float64, len(opts.Pairs))
		for _, p := range opts.Pairs {
			s, ok := usage[p]
			if !ok {
				return nil, fmt.Errorf("core: no metric recorded for %s", p)
			}
			sub[p] = s
		}
		usage = sub
	}
	if opts.Estimator.Hidden == 0 {
		opts.Estimator = estimator.DefaultConfig()
	}
	if opts.Metrics != nil && opts.Estimator.Progress == nil {
		opts.Estimator.Progress = trainProgress(opts.Metrics)
	}
	s := &System{opts: opts}
	if opts.Anonymize {
		s.hasher = trace.NewHasher(opts.HashSalt)
		windows = anonymizeWindows(s.hasher, windows)
	}
	s.synth = synth.Learn(windows)
	ctx, span := opts.Tracer.Start(context.Background(), "core.learn")
	defer span.End()
	span.SetWindows(len(windows))
	if opts.Estimator.Stage == nil {
		stage := trainStages(ctx, opts)
		opts.Estimator.Stage = func(name string) func() { return stage("estimator."+name, name) }
	}
	var spell func(string) string // the spans' names for the pairs' components
	if s.hasher != nil {
		spell = s.hasher.Hash
	}
	model, seeded, err := estimator.TrainWarm(windows, usage, opts.Estimator, prev, spell)
	span.SetErr(err)
	if err != nil {
		return nil, fmt.Errorf("core: train estimator: %w", err)
	}
	s.model, s.warm = model, seeded > 0
	s.compileEngine(ctx)
	return s, nil
}

// Restore rebuilds a System around an already-trained (typically
// checkpoint-loaded) estimator model. The trace synthesizer is re-learned
// from the given telemetry windows — the model snapshot intentionally omits
// raw trace distributions (see Save). With no windows the system can still
// answer Mode-2 queries (sanity checks over real traces); Mode-1 traffic
// queries need at least one window per API to synthesize from.
func Restore(model *estimator.Model, windows [][]trace.Batch, opts Options) *System {
	s := &System{opts: opts, model: model}
	if opts.Anonymize {
		s.hasher = trace.NewHasher(opts.HashSalt)
		windows = anonymizeWindows(s.hasher, windows)
	}
	s.synth = synth.Learn(windows)
	s.compileEngine(context.Background())
	return s
}

// trainProgress adapts the estimator's per-epoch hook onto the metrics
// registry: epoch counters by phase, current loss by expert, and an epoch
// duration histogram. Registration is idempotent, so calling this once per
// training run resolves to the same underlying series. The returned hook is
// called concurrently from expert-training goroutines; every operation in it
// is an atomic update.
func trainProgress(reg *obs.Registry) func(estimator.ProgressEvent) {
	epochs := reg.CounterVec("deeprest_train_epochs_total",
		"Completed training epochs by phase (train = recurrent trunks, attention = cross-component heads).",
		"phase")
	loss := reg.GaugeVec("deeprest_train_epoch_loss",
		"Mean pinball loss of the most recent completed epoch, per expert.",
		"pair")
	dur := reg.Histogram("deeprest_train_epoch_duration_seconds",
		"Wall-clock duration of one training epoch of one expert; a phase-B epoch is a panel's, its time shared evenly by the panel's experts.",
		obs.DurationBuckets)
	return func(ev estimator.ProgressEvent) {
		epochs.With(ev.Phase).Inc()
		loss.With(ev.Pair).Set(ev.Loss)
		dur.Observe(ev.Duration.Seconds())
	}
}

func anonymizeWindows(h *trace.Hasher, windows [][]trace.Batch) [][]trace.Batch {
	out := make([][]trace.Batch, len(windows))
	for w, batches := range windows {
		out[w] = anonymizeBatches(h, batches)
	}
	return out
}

func anonymizeBatches(h *trace.Hasher, batches []trace.Batch) []trace.Batch {
	ab := make([]trace.Batch, len(batches))
	for i, b := range batches {
		ab[i] = trace.Batch{Trace: h.AnonymizeTrace(b.Trace), Count: b.Count}
	}
	return ab
}

// Model exposes the trained estimator, e.g. for interpretation reports and
// serialization.
func (s *System) Model() *estimator.Model { return s.model }

// Synthesizer exposes the learned trace synthesizer.
func (s *System) Synthesizer() *synth.Synthesizer { return s.synth }

// Pairs returns the estimation targets of the learned system.
func (s *System) Pairs() []app.Pair { return s.model.Pairs }

// EstimateTraffic is query Mode 1: given hypothetical API traffic, it
// synthesizes traces from Prob(path | API) and estimates the resources
// required to serve the traffic, per (component, resource) pair.
func (s *System) EstimateTraffic(t *workload.Traffic) (map[app.Pair]estimator.Estimate, error) {
	series, err := s.SynthesizeFeatures(t)
	if err != nil {
		return nil, err
	}
	return s.predictSeries(series)
}

// EstimateTrafficBatch runs Mode-1 queries for several hypothetical
// traffics as one engine pass: the closed-loop autoscaler asks "what will
// utilization be?" once per scheduling interval over a slightly different
// hybrid traffic (realized-so-far plus projected-remainder). The result is
// bit-identical to calling EstimateTraffic per traffic.
func (s *System) EstimateTrafficBatch(ts []*workload.Traffic) ([]map[app.Pair]estimator.Estimate, error) {
	if s.engineErr != nil {
		return nil, s.engineErr
	}
	batch := make([][]features.Vector, len(ts))
	for i, t := range ts {
		series, err := s.SynthesizeFeatures(t)
		if err != nil {
			return nil, fmt.Errorf("core: batch traffic %d: %w", i, err)
		}
		batch[i] = series
	}
	return s.engine.PredictBatch(batch)
}

// SynthesizeFeatures runs the front half of a Mode-1 query: anonymisation,
// trace synthesis, and feature extraction.
func (s *System) SynthesizeFeatures(t *workload.Traffic) ([]features.Vector, error) {
	qt := t
	if s.hasher != nil {
		qt = hashTrafficAPIs(s.hasher, t)
	}
	windows, err := s.synth.Synthesize(qt, s.opts.SynthSeed)
	if err != nil {
		return nil, fmt.Errorf("core: synthesize traces: %w", err)
	}
	return s.model.Space.ExtractSeries(windows), nil
}

// predictSeries runs a feature series through the compiled engine.
func (s *System) predictSeries(series []features.Vector) (map[app.Pair]estimator.Estimate, error) {
	if s.engineErr != nil {
		return nil, s.engineErr
	}
	return s.engine.Predict(series)
}

func hashTrafficAPIs(h *trace.Hasher, t *workload.Traffic) *workload.Traffic {
	out := &workload.Traffic{
		Windows:       make([]map[string]int, len(t.Windows)),
		WindowSeconds: t.WindowSeconds,
		WindowsPerDay: t.WindowsPerDay,
	}
	seen := make(map[string]bool)
	for w, m := range t.Windows {
		hm := make(map[string]int, len(m))
		for api, n := range m {
			ha := h.Hash(api)
			hm[ha] = n
			seen[ha] = true
		}
		out.Windows[w] = hm
	}
	for a := range seen {
		out.APIs = append(out.APIs, a)
	}
	return out
}

// ExpectedUtilization is the estimation half of query Mode 2: given the
// real traces the application served, it returns the utilization DeepRest
// expects per pair, with confidence intervals.
func (s *System) ExpectedUtilization(windows [][]trace.Batch) (map[app.Pair]estimator.Estimate, error) {
	if s.hasher != nil {
		windows = anonymizeWindows(s.hasher, windows)
	}
	return s.predictSeries(s.model.Space.ExtractSeries(windows))
}

// Extractor returns the function that maps one raw telemetry window to this
// system's feature space, applying anonymisation when the system was
// learned with it. It is what the telemetry store caches per-window feature
// vectors with (telemetry.Server.SetExtractor), so extraction happens once
// at ingest instead of on every query; vectors it produces feed the
// *Vectors query variants bit-identically to the trace-walking paths.
func (s *System) Extractor() func([]trace.Batch) features.Vector {
	sp := s.model.Space
	h := s.hasher
	return func(batches []trace.Batch) features.Vector {
		if h != nil {
			batches = anonymizeBatches(h, batches)
		}
		return sp.Extract(batches)
	}
}

// ExpectedUtilizationVectors is ExpectedUtilization over pre-extracted
// feature vectors (see Extractor); no further anonymisation is applied.
// It rides the tape-free engine like every serving read — which is how the
// shadow scorer in internal/quality inherits the speedup for free.
func (s *System) ExpectedUtilizationVectors(series []features.Vector) (map[app.Pair]estimator.Estimate, error) {
	return s.predictSeries(series)
}

// SanityCheck is query Mode 2 end-to-end: it estimates the expected
// utilization for the served traces, compares the actual measurements
// against the expected intervals, and returns the anomalous events. det may
// be nil for default detection thresholds.
func (s *System) SanityCheck(windows [][]trace.Batch, actual map[app.Pair][]float64, det *anomaly.Detector) ([]anomaly.Event, error) {
	expected, err := s.ExpectedUtilization(windows)
	if err != nil {
		return nil, err
	}
	if det == nil {
		det = anomaly.NewDetector()
	}
	return det.Detect(actual, expected)
}

// Save serializes the learned estimator. The synthesizer is rebuilt from
// telemetry at load time via Learn; persisting raw trace distributions is
// intentionally avoided in anonymized deployments.
func (s *System) Save(w io.Writer) error { return s.model.Save(w) }
