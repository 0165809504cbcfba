// Package pipeline is the continuous-learning orchestrator that converts
// DeepRest from a batch trainer into a long-running training/inference
// service (the deployment the paper envisions in §1 and §7: the model keeps
// learning as traffic evolves, while serving estimates the whole time).
//
// The pipeline owns the model lifecycle end to end:
//
//   - TickScheduled retrains over a sliding window of the most recent
//     telemetry, warm-starting each generation from the previous one
//     (internal/estimator transfer machinery);
//   - TickDrift evaluates a drift detector (internal/drift) on the telemetry
//     that arrived since the last training run and retrains early when the
//     model's estimates stop explaining the measurements;
//   - every trained generation is published into a versioned Registry with
//     bounded history, optional checkpoints on disk, and rollback;
//   - serving reads go through Registry.Active — an RCU-style atomic
//     snapshot — so estimate and sanity queries never block on training and
//     never observe a half-swapped model.
//
// The pipeline owns no goroutine: a scheduler (internal/fleet) calls the two
// ticks at the cadence Interval and DriftEvery report, from a bounded worker
// pool shared by every tenant, and cancels their context to stop them.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"sync"
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/estimator"
	"repro/internal/faults"
	"repro/internal/features"
	"repro/internal/obs"
	"repro/internal/trace"
)

// ErrTrainingInFlight is returned when a training run is requested while a
// previous generation is still training. The HTTP layer maps it to
// 409 Conflict.
var ErrTrainingInFlight = errors.New("pipeline: a training generation is already in flight")

// ErrFaultInjected is the failure produced by a retrainfail injector in the
// configured fault schedule. It exists so tests (and operators reading
// Status.LastError) can tell an injected failure from an organic one.
var ErrFaultInjected = errors.New("pipeline: training failure injected by fault schedule")

// Source is the telemetry store the pipeline trains and drift-checks over —
// the tenant's *telemetry.Server; an interface so a test can substitute a
// fake. Windows [OldestWindow, NumWindows) are resident: training and drift
// ranges are clamped to that floor, so a sliding window wider than the
// retention horizon degrades to "all resident telemetry". Features serves
// the per-window vector cache that SetExtractor keeps in the active
// generation's space (see followActive).
type Source interface {
	NumWindows() int
	OldestWindow() int
	Traces(from, to int) ([][]trace.Batch, error)
	Metrics(from, to int) (map[app.Pair][]float64, error)
	Features(gen int, fn func([]trace.Batch) features.Vector, from, to int) ([]features.Vector, error)
	SetExtractor(gen int, fn func([]trace.Batch) features.Vector)
}

// Config tunes continuous learning. Start from DefaultConfig.
type Config struct {
	// Interval is the scheduled retraining cadence.
	Interval time.Duration
	// DriftEvery is the drift-check cadence (usually a fraction of
	// Interval so drift can cut a retrain wait short).
	DriftEvery time.Duration
	// Window bounds the sliding training window to the most recent N
	// telemetry windows; 0 trains over the whole history.
	Window int
	// MinNewWindows is how many fresh telemetry windows must have arrived
	// since the last training run before a scheduled retrain fires.
	MinNewWindows int
	// MinDriftWindows is how many fresh windows the drift check needs
	// before it produces a meaningful signal.
	MinDriftWindows int
	// MaxHistory bounds the registry (minimum 2).
	MaxHistory int
	// CheckpointDir enables on-disk checkpoints when non-empty.
	CheckpointDir string
	// MaxRetries bounds how many times a failed scheduled/drift retrain is
	// retried before the tick gives up until the next one (default 2).
	// Manual TrainOnce calls are never retried: the caller gets the error.
	MaxRetries int
	// RetryBackoff is the initial delay before the first retry; it doubles
	// after every failed attempt (default 1s).
	RetryBackoff time.Duration
	// Faults, when non-nil, injects deterministic control-plane failures:
	// retrainfail makes training attempts fail, ckptcorrupt rots checkpoint
	// files after a successful write. Nil disables injection.
	Faults *faults.Schedule
	// BeforeTrain, when non-nil, runs after a training slot is acquired
	// and before training starts — an observability hook, also used by
	// tests to hold a generation in flight deterministically.
	BeforeTrain func()
	// QualityCheck, when non-nil, is polled on every drift tick after the
	// drift verdict: returning true (with a human-readable reason)
	// triggers an early retrain with trigger "quality". The service layer
	// wires this to the shadow-scoring regression gate
	// (internal/quality.Scorer.Regressed) — the hook indirection keeps
	// quality from importing pipeline and vice versa.
	QualityCheck func() (bool, string)
}

// DefaultConfig returns the production defaults: retrain every 15 minutes
// over the most recent day of one-minute windows, drift-check four times
// per cadence, keep 4 generations. A retrain warm-starts from the active
// generation whenever there is one.
func DefaultConfig() Config {
	return Config{
		Interval:        15 * time.Minute,
		DriftEvery:      0, // derived: Interval / 4
		Window:          0,
		MinNewWindows:   1,
		MinDriftWindows: 8,
		MaxHistory:      4,
		MaxRetries:      2,
		RetryBackoff:    time.Second,
	}
}

// Pipeline orchestrates training generations against a telemetry source
// and publishes them into its Registry.
type Pipeline struct {
	opts core.Options
	cfg  Config
	det  *drift.Detector
	reg  *Registry
	src  Source
	log  *slog.Logger // nil = no structured logging

	// Self-instrumentation (all handles nil-safe no-ops when
	// core.Options.Metrics is nil).
	genDur        *obs.HistogramVec // generation train+publish duration, by trigger
	genTotal      *obs.CounterVec   // generations by trigger and result
	genRetries    *obs.CounterVec   // retrain retry attempts, by trigger
	degradedGauge *obs.Gauge        // 1 while serving last-good through failures
	consecFailsG  *obs.Gauge        // consecutive training failures
	driftChecks   *obs.CounterVec   // drift measurements, by verdict
	driftScore    *obs.Gauge        // mean MAPE of the last drift check
	driftCoverage *obs.Gauge        // interval coverage of the last drift check
	driftUnknown  *obs.Gauge        // unknown-path fraction of the last drift check

	mu          sync.Mutex
	inFlight    bool
	pairs       []app.Pair // pair restriction of the last manual learn
	trainedTo   int        // store index the latest generation trained up to
	lastErr     string
	lastDrift   *drift.Signal
	lastQuality string // reason of the last quality-gate regression
	attempts    int    // lifetime training attempts, feeds the retrainfail injector
	consecFails int    // training failures since the last successful publish
}

// New builds a pipeline over the tenant's telemetry store; "no telemetry
// yet" is src.NumWindows() == 0.
func New(opts core.Options, cfg Config, src Source) (*Pipeline, error) {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultConfig().Interval
	}
	if cfg.DriftEvery <= 0 {
		cfg.DriftEvery = cfg.Interval / 4
	}
	if cfg.MinDriftWindows <= 0 {
		cfg.MinDriftWindows = DefaultConfig().MinDriftWindows
	}
	if cfg.MaxHistory <= 0 {
		cfg.MaxHistory = DefaultConfig().MaxHistory
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = DefaultConfig().RetryBackoff
	}
	reg, err := NewRegistry(cfg.MaxHistory, cfg.CheckpointDir)
	if err != nil {
		return nil, err
	}
	reg.instrument(opts.Metrics)
	reg.injected = cfg.Faults
	reg.tracer = opts.Tracer
	p := &Pipeline{opts: opts, cfg: cfg, det: drift.NewDetector(), reg: reg, src: src, log: opts.Logger}
	if m := opts.Metrics; m != nil {
		p.genDur = m.HistogramVec("deeprest_pipeline_generation_seconds",
			"Wall-clock duration of one training generation, train through publish.",
			obs.DurationBuckets, "trigger")
		p.genTotal = m.CounterVec("deeprest_pipeline_generations_total",
			"Training generations by trigger (manual, scheduled, drift) and result (ok, error).",
			"trigger", "result")
		p.genRetries = m.CounterVec("deeprest_pipeline_retries_total",
			"Retry attempts after a failed scheduled or drift retrain, by trigger.",
			"trigger")
		p.degradedGauge = m.Gauge("deeprest_pipeline_degraded",
			"1 while the pipeline is degraded (training is failing and queries are served from the last good generation), else 0.")
		p.consecFailsG = m.Gauge("deeprest_pipeline_consecutive_failures",
			"Training failures since the last successfully published generation.")
		p.driftChecks = m.CounterVec("deeprest_drift_checks_total",
			"Drift measurements of the active model against fresh telemetry, by verdict.",
			"drifted")
		p.driftScore = m.Gauge("deeprest_drift_score",
			"Mean MAPE (percent) of the active model on fresh telemetry at the last drift check.")
		p.driftCoverage = m.Gauge("deeprest_drift_coverage",
			"Fraction of fresh observations inside the model's confidence interval at the last drift check.")
		p.driftUnknown = m.Gauge("deeprest_drift_unknown_path_frac",
			"Fraction of span visits on invocation paths unknown to the model at the last drift check.")
	}
	return p, nil
}

// info logs through the configured structured logger; a nil logger drops the
// line (the pipeline is used headless in tests and library embeddings).
func (p *Pipeline) info(msg string, args ...interface{}) {
	if p.log != nil {
		p.log.Info(msg, args...)
	}
}

func (p *Pipeline) warn(msg string, args ...interface{}) {
	if p.log != nil {
		p.log.Warn(msg, args...)
	}
}

// Registry exposes the versioned model store.
func (p *Pipeline) Registry() *Registry { return p.reg }

// Active is shorthand for the serving generation (nil before the first
// training run).
func (p *Pipeline) Active() *Generation { return p.reg.Active() }

// Status is a point-in-time snapshot of the pipeline state.
type Status struct {
	InFlight      bool          `json:"training_in_flight"`
	ActiveVersion int           `json:"active_version,omitempty"`
	Generations   int           `json:"generations"`
	TrainedTo     int           `json:"trained_to_window"`
	LastError     string        `json:"last_error,omitempty"`
	LastDrift     *drift.Signal `json:"last_drift,omitempty"`
	// LastQuality carries the most recent shadow-scoring regression that
	// triggered (or is about to trigger) an early retrain.
	LastQuality string `json:"last_quality_regression,omitempty"`
	// ConsecutiveFailures counts training failures since the last
	// successful publish; Degraded is true while that count is non-zero,
	// meaning queries are being answered from the last good generation.
	ConsecutiveFailures int  `json:"consecutive_failures,omitempty"`
	Degraded            bool `json:"degraded,omitempty"`
	// Quarantined lists checkpoint files set aside as corrupt at recovery.
	Quarantined []string `json:"quarantined_checkpoints,omitempty"`
}

// Status reports the pipeline state.
func (p *Pipeline) Status() Status {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := Status{
		InFlight:            p.inFlight,
		Generations:         len(p.reg.Generations()),
		TrainedTo:           p.trainedTo,
		LastError:           p.lastErr,
		LastDrift:           p.lastDrift,
		LastQuality:         p.lastQuality,
		ConsecutiveFailures: p.consecFails,
		Degraded:            p.consecFails > 0,
		Quarantined:         p.reg.Quarantined(),
	}
	if g := p.reg.Active(); g != nil {
		st.ActiveVersion = g.Version
	}
	return st
}

// Degraded reports whether training is currently failing while the service
// keeps answering from the last good generation.
func (p *Pipeline) Degraded() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.consecFails > 0
}

// DriftEvery reports the resolved drift-check cadence (useful when the
// config left it to be derived from the retrain interval).
func (p *Pipeline) DriftEvery() time.Duration { return p.cfg.DriftEvery }

// TrainOnce trains and publishes one generation over store windows
// [from, to); to <= 0 means "up to the newest window". A "manual" trigger
// records the pair restriction for subsequent scheduled retrains. Only one
// generation trains at a time: concurrent calls fail fast with
// ErrTrainingInFlight instead of queueing behind a long training run.
func (p *Pipeline) TrainOnce(from, to int, pairs []app.Pair, trigger string) (*Generation, error) {
	return p.TrainOnceCtx(context.Background(), from, to, pairs, trigger)
}

// TrainOnceCtx is TrainOnce with cancellation: the context is checked at
// phase boundaries (before fetching telemetry and before publishing), so a
// cancelled request abandons the generation without publishing a
// half-trained model. The serving generation is untouched on any failure.
func (p *Pipeline) TrainOnceCtx(ctx context.Context, from, to int, pairs []app.Pair, trigger string) (*Generation, error) {
	n := p.src.NumWindows()
	if n == 0 {
		return nil, fmt.Errorf("pipeline: no telemetry ingested")
	}
	if to <= 0 {
		to = n
	}
	// Clamp to the retention horizon: on a bounded store, "from the
	// beginning" (and any sliding window wider than the horizon) means
	// "from the oldest resident window".
	from = max(from, p.src.OldestWindow())

	p.mu.Lock()
	if p.inFlight {
		p.mu.Unlock()
		return nil, ErrTrainingInFlight
	}
	p.inFlight = true
	p.attempts++
	attempt := p.attempts
	if trigger == "manual" {
		p.pairs = pairs
	} else if pairs == nil {
		pairs = p.pairs
	}
	var warm estimator.WarmStart
	if g := p.reg.Active(); g != nil {
		warm = estimator.FromModel(g.Model())
	}
	p.mu.Unlock()

	start := time.Now()
	tctx, span := p.opts.Tracer.Start(ctx, "pipeline.train")
	span.SetWindows(to - from)
	gen, err := p.train(tctx, from, to, pairs, trigger, warm, attempt)
	span.SetErr(err)
	span.End()
	elapsed := time.Since(start)

	p.mu.Lock()
	p.inFlight = false
	if err != nil {
		p.lastErr = err.Error()
		p.consecFails++
	} else {
		p.lastErr = ""
		p.trainedTo = to
		p.lastDrift = nil // the new generation resets the drift signal
		p.consecFails = 0
	}
	degraded := p.consecFails
	p.mu.Unlock()
	p.consecFailsG.Set(float64(degraded))
	if degraded > 0 {
		p.degradedGauge.Set(1)
	} else {
		p.degradedGauge.Set(0)
	}

	p.genDur.With(trigger).Observe(elapsed.Seconds())
	if err != nil {
		p.genTotal.With(trigger, "error").Inc()
		p.warn("training generation failed",
			"trigger", trigger, "from", from, "to", to,
			"duration", elapsed, "error", err, "span_id", obs.SpanID(tctx))
	} else {
		p.genTotal.With(trigger, "ok").Inc()
		p.info("generation published",
			"version", gen.Version, "trigger", trigger,
			"from", gen.From, "to", gen.To, "experts", gen.Experts(),
			"warm_started", gen.Warm, "duration", elapsed,
			"span_id", obs.SpanID(tctx))
	}
	return gen, err
}

// train runs one training generation. The in-flight slot is already held.
func (p *Pipeline) train(ctx context.Context, from, to int, pairs []app.Pair, trigger string, warm estimator.WarmStart, attempt int) (*Generation, error) {
	if p.cfg.BeforeTrain != nil {
		p.cfg.BeforeTrain()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("pipeline: training cancelled: %w", err)
	}
	if p.cfg.Faults.FailTraining(attempt) {
		return nil, fmt.Errorf("%w (attempt %d)", ErrFaultInjected, attempt)
	}
	windows, err := p.src.Traces(from, to)
	if err != nil {
		return nil, fmt.Errorf("pipeline: fetch traces: %w", err)
	}
	usage, err := p.src.Metrics(from, to)
	if err != nil {
		return nil, fmt.Errorf("pipeline: fetch metrics: %w", err)
	}
	if len(pairs) > 0 {
		sub := make(map[app.Pair][]float64, len(pairs))
		for _, pr := range pairs {
			s, ok := usage[pr]
			if !ok {
				return nil, fmt.Errorf("pipeline: no metric recorded for %s", pr)
			}
			sub[pr] = s
		}
		usage = sub
	}
	sys, err := core.LearnFromDataWarm(windows, usage, p.opts, warm)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("pipeline: training cancelled before publish: %w", err)
	}
	g := &Generation{Trigger: trigger, From: from, To: to, Warm: warm != nil, System: sys}
	pub, err := p.reg.Publish(ctx, g)
	if err != nil {
		return nil, err
	}
	p.followActive()
	return pub, nil
}

// followActive is the one place that decides the store extracts with the
// active generation's feature space; publish, Recover and Activate end with
// it. Windows recorded from here on are extracted once, at Record time, in
// that space, and cached vectors of another generation invalidate lazily on
// read.
func (p *Pipeline) followActive() {
	if g := p.reg.Active(); g != nil {
		p.src.SetExtractor(g.Version, g.System.Extractor())
	}
}

// Activate makes a retained generation the serving one (rollback or
// roll-forward) and points the store's extraction at it.
func (p *Pipeline) Activate(version int) (*Generation, error) {
	g, err := p.reg.Activate(version)
	if err != nil {
		return nil, err
	}
	p.followActive()
	return g, nil
}

// slidingFrom maps "train up to n" to the configured sliding-window start.
func (p *Pipeline) slidingFrom(n int) int {
	if p.cfg.Window > 0 && n > p.cfg.Window {
		return n - p.cfg.Window
	}
	return 0
}

// Recover loads checkpointed generations from the configured directory
// (process restart). Each recovered model is wrapped in a System whose
// synthesizer is re-learned from whatever telemetry the store holds at this
// moment and is immutable afterwards: over an empty store (a push-only
// tenant) the recovered generation serves status, models and downloads at
// once, and traffic queries only from the next generation learned on
// re-pushed telemetry.
func (p *Pipeline) Recover() (int, error) {
	// Recovery runs while the tenant is built, before anything can push: the
	// resident range cannot move under the two reads.
	windows, _ := p.src.Traces(p.src.OldestWindow(), p.src.NumWindows())
	n, err := p.reg.Recover(func(m *estimator.Model) *core.System {
		return core.Restore(m, windows, p.opts)
	})
	p.followActive()
	if q := p.reg.Quarantined(); len(q) > 0 {
		p.warn("corrupt checkpoints quarantined during recovery",
			"files", q, "recovered", n)
		p.mu.Lock()
		p.lastErr = fmt.Sprintf("quarantined corrupt checkpoint(s): %v", q)
		p.mu.Unlock()
	}
	if err != nil || n == 0 {
		return n, err
	}
	p.mu.Lock()
	if g := p.reg.Active(); g != nil && g.To > p.trainedTo {
		p.trainedTo = g.To
	}
	p.mu.Unlock()
	return n, nil
}

// TickScheduled runs one scheduled-retrain check: retrain over the sliding
// window if enough fresh telemetry arrived, else do nothing. The fleet
// scheduler calls it every Interval, driving N pipelines from one bounded
// worker pool.
func (p *Pipeline) TickScheduled(ctx context.Context) { p.scheduledRetrain(ctx, "scheduled") }

// TickDrift runs one drift/quality check, retraining early when either gate
// fires; the scheduler calls it every DriftEvery.
func (p *Pipeline) TickDrift(ctx context.Context) {
	if p.checkDrift() {
		p.scheduledRetrain(ctx, "drift")
	} else if p.checkQuality() {
		p.scheduledRetrain(ctx, "quality")
	}
}

// Interval reports the resolved scheduled-retrain cadence, the companion of
// DriftEvery.
func (p *Pipeline) Interval() time.Duration { return p.cfg.Interval }

// rebaseTrainedTo returns the high-water mark of trained windows, clamped
// to the store size. After a restart the recovered mark can exceed the
// rebuilt (re-ingested) store, whose window indices restart at zero; without
// the clamp the ticks would wait for the old count to be passed again and
// silently stall. Clamping treats the re-ingested history as already
// covered, so the next genuinely fresh window re-arms them.
func (p *Pipeline) rebaseTrainedTo(n int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.trainedTo > n {
		p.trainedTo = n
	}
	return p.trainedTo
}

// scheduledRetrain retrains over the sliding window when enough fresh
// telemetry has arrived. Errors (including a manual learn holding the
// training slot) are recorded in Status, never fatal to the caller. A failed
// attempt is retried up to MaxRetries times with doubling backoff; while
// failures persist the pipeline is degraded — queries keep being served
// from the last good generation.
func (p *Pipeline) scheduledRetrain(ctx context.Context, trigger string) {
	n := p.src.NumWindows()
	trainedTo := p.rebaseTrainedTo(n)
	minNew := p.cfg.MinNewWindows
	if trigger == "drift" || trigger == "quality" {
		minNew = 1 // the drift/quality gate already decided fresh data warrants it
	}
	if n == 0 || (p.reg.Active() != nil && n-trainedTo < minNew) {
		return
	}
	backoff := p.cfg.RetryBackoff
	for attempt := 0; ; attempt++ {
		_, err := p.TrainOnceCtx(ctx, p.slidingFrom(n), n, nil, trigger)
		if err == nil || errors.Is(err, ErrTrainingInFlight) {
			// A manual learn holding the slot is not a training failure;
			// the next tick will pick the fresh windows up.
			return
		}
		p.mu.Lock()
		p.lastErr = err.Error()
		p.mu.Unlock()
		if attempt >= p.cfg.MaxRetries || ctx.Err() != nil {
			p.warn("retrain failed; serving last good generation until next tick",
				"trigger", trigger, "attempts", attempt+1, "error", err)
			return
		}
		p.genRetries.With(trigger).Inc()
		p.info("retrain failed; backing off before retry",
			"trigger", trigger, "attempt", attempt+1, "backoff", backoff, "error", err)
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		backoff *= 2
	}
}

// TrainingInFlight reports whether a training generation is currently in
// flight. The HTTP layer uses it to refuse serving swaps mid-learn.
func (p *Pipeline) TrainingInFlight() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inFlight
}

// checkQuality polls the shadow-scoring regression gate (when configured)
// and reports whether a quality-triggered retrain should fire.
func (p *Pipeline) checkQuality() bool {
	if p.cfg.QualityCheck == nil || p.reg.Active() == nil {
		return false
	}
	bad, reason := p.cfg.QualityCheck()
	if !bad {
		return false
	}
	p.mu.Lock()
	p.lastQuality = reason
	p.mu.Unlock()
	p.warn("prediction quality regressed; scheduling early retrain", "reason", reason)
	return true
}

// checkDrift measures the active model against the telemetry that arrived
// since the last training run and reports whether an early retrain should
// fire.
func (p *Pipeline) checkDrift() bool {
	g := p.reg.Active()
	if g == nil {
		return false
	}
	n := p.src.NumWindows()
	from := max(p.rebaseTrainedTo(n), p.src.OldestWindow())
	if n-from < p.cfg.MinDriftWindows {
		return false
	}
	usage, err := p.src.Metrics(from, n)
	if err != nil {
		return false
	}
	// The store's cached per-window vectors, not a walk of every trace tree
	// on every drift tick: the series comes from the generation's own
	// extractor (anonymisation included), the estimates from its engine.
	series, err := p.src.Features(g.Version, g.System.Extractor(), from, n)
	if err != nil {
		return false
	}
	var sig drift.Signal
	est, err := g.System.ExpectedUtilizationVectors(series)
	if err == nil {
		sig, err = p.det.MeasureVectors(series, est, g.System.Pairs(), usage)
	}
	if err != nil {
		p.mu.Lock()
		p.lastErr = err.Error()
		p.mu.Unlock()
		return false
	}
	p.mu.Lock()
	p.lastDrift = &sig
	p.mu.Unlock()
	p.driftChecks.With(strconv.FormatBool(sig.Drifted)).Inc()
	p.driftScore.Set(sig.MeanMAPE)
	p.driftCoverage.Set(sig.Coverage)
	p.driftUnknown.Set(sig.UnknownPathFrac)
	if sig.Drifted {
		p.warn("drift detected; scheduling early retrain",
			"reason", sig.Reason, "windows", sig.Windows,
			"mean_mape", sig.MeanMAPE, "coverage", sig.Coverage,
			"unknown_path_frac", sig.UnknownPathFrac)
	}
	return sig.Drifted
}
