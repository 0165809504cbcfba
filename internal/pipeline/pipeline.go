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
//   - TickDrift asks the shadow scoreboard (internal/quality) for its verdict
//     on the telemetry that arrived since the last training run and retrains
//     early when the model's estimates stop explaining the measurements;
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
	"sync"
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/faults"
	"repro/internal/features"
	"repro/internal/obs"
	"repro/internal/quality"
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

// Source is the telemetry store the pipeline trains over — the tenant's
// *telemetry.Server; an interface so a test can substitute a fake. Windows
// [OldestWindow, NumWindows) are resident: training ranges are clamped to
// that floor, so a sliding window wider than the retention horizon degrades
// to "all resident telemetry". SetExtractor keeps the store's per-window
// feature cache in the active generation's space (see followActive).
type Source interface {
	core.Telemetry
	NumWindows() int
	OldestWindow() int
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
	// QualityCheck, when non-nil, is the early-retrain decision every drift
	// tick asks for: the shadow scoreboard's verdict over the windows at or
	// after trainedTo, or nil while too few of them are scored. A verdict
	// with a Reason retrains with trigger "drift". The service wires it to
	// its scorer (quality.Scorer.CatchUp, then Verdict); the pipeline runs
	// no engine itself.
	QualityCheck func(ctx context.Context, trainedTo int) *quality.Verdict
}

// DefaultConfig returns the production defaults: retrain every 15 minutes
// over the most recent day of one-minute windows, drift-check four times
// per cadence, keep 4 generations. A retrain warm-starts from the active
// generation whenever there is one.
func DefaultConfig() Config {
	return Config{
		Interval:      15 * time.Minute,
		DriftEvery:    0, // derived: Interval / 4
		Window:        0,
		MinNewWindows: 1,
		MaxHistory:    4,
		MaxRetries:    2,
		RetryBackoff:  time.Second,
	}
}

// Pipeline orchestrates training generations against a telemetry source
// and publishes them into its Registry.
type Pipeline struct {
	opts core.Options
	cfg  Config
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

	mu          sync.Mutex
	inFlight    bool
	pairs       []app.Pair // pair restriction of the last manual learn
	trainedTo   int        // store index the latest generation trained up to
	lastErr     string
	lastDrift   *quality.Verdict // the last verdict since the latest publish
	attempts    int              // lifetime training attempts, feeds the retrainfail injector
	consecFails int              // training failures since the last successful publish
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
	p := &Pipeline{opts: opts, cfg: cfg, reg: reg, src: src, log: opts.Logger}
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
	InFlight      bool   `json:"training_in_flight"`
	ActiveVersion int    `json:"active_version,omitempty"`
	Generations   int    `json:"generations"`
	TrainedTo     int    `json:"trained_to_window"`
	LastError     string `json:"last_error,omitempty"`
	// LastDrift is the last early-retrain verdict a drift tick took since
	// the latest publish; a publish clears it.
	LastDrift *quality.Verdict `json:"last_drift,omitempty"`
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
	var prev *estimator.Model
	if g := p.reg.Active(); g != nil {
		prev = g.Model()
	}
	p.mu.Unlock()

	start := time.Now()
	tctx, span := p.opts.Tracer.Start(ctx, "pipeline.train")
	span.SetWindows(to - from)
	gen, err := p.train(tctx, from, to, pairs, trigger, prev, attempt)
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
		p.lastDrift = nil // the verdict described the generation before
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
func (p *Pipeline) train(ctx context.Context, from, to int, pairs []app.Pair, trigger string, prev *estimator.Model, attempt int) (*Generation, error) {
	if p.cfg.BeforeTrain != nil {
		p.cfg.BeforeTrain()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("pipeline: training cancelled: %w", err)
	}
	if p.cfg.Faults.FailTraining(attempt) {
		return nil, fmt.Errorf("%w (attempt %d)", ErrFaultInjected, attempt)
	}
	opts := p.opts
	opts.Pairs = pairs
	sys, err := core.Learn(p.src, from, to, opts, prev)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("pipeline: training cancelled before publish: %w", err)
	}
	g := &Generation{Trigger: trigger, From: from, To: to, Warm: sys.Warm(), System: sys}
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

// TickDrift takes the early-retrain verdict on the telemetry since the last
// training run (Config.QualityCheck) and retrains with trigger "drift" when
// it trips; the scheduler calls it every DriftEvery.
func (p *Pipeline) TickDrift(ctx context.Context) {
	if p.cfg.QualityCheck == nil || p.reg.Active() == nil {
		return
	}
	v := p.cfg.QualityCheck(ctx, p.rebaseTrainedTo(p.src.NumWindows()))
	if v == nil {
		return
	}
	p.mu.Lock()
	p.lastDrift = v
	p.mu.Unlock()
	if v.Reason == "" {
		return
	}
	p.warn("drift detected; scheduling early retrain",
		"reason", v.Reason, "windows", v.Windows, "smape", v.SMAPE,
		"coverage", v.Coverage, "unknown_path_frac", v.UnknownPathFrac)
	p.scheduledRetrain(ctx, "drift")
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
	if trigger == "drift" {
		minNew = 1 // the verdict already decided fresh data warrants it
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
