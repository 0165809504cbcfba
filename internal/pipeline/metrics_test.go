package pipeline

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/telemetry"
)

// newScoredPipeline builds a pipeline whose drift tick takes its verdict
// from a shadow scorer over store, wired the way the service wires them.
func newScoredPipeline(t *testing.T, opts core.Options, cfg Config, store *telemetry.Server) *Pipeline {
	t.Helper()
	var p *Pipeline
	scorer := quality.New(quality.Config{}, quality.Deps{Source: store, Metrics: opts.Metrics,
		Active: func() (int, *core.System) {
			if g := p.Active(); g != nil {
				return g.Version, g.System
			}
			return 0, nil
		}})
	cfg.QualityCheck = func(ctx context.Context, trainedTo int) *quality.Verdict {
		scorer.CatchUp(ctx)
		return scorer.Verdict(trainedTo)
	}
	var err error
	if p, err = New(opts, cfg, store); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPipelineMetrics(t *testing.T) {
	store := toyStore(t, 1, 91)
	reg := obs.NewRegistry()
	opts := quickOpts()
	opts.Metrics = reg
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.CheckpointDir = dir
	p := newScoredPipeline(t, opts, cfg, store)

	// Train short of the newest windows so the drift tick below has just
	// enough fresh telemetry for a verdict.
	trainTo := store.NumWindows() - quality.MinVerdictWindows
	if _, err := p.TrainOnce(0, trainTo, []app.Pair{cpuPair}, "manual"); err != nil {
		t.Fatal(err)
	}
	genOK := reg.CounterVec("deeprest_pipeline_generations_total",
		"Training generations by trigger (manual, scheduled, drift) and result (ok, error).",
		"trigger", "result")
	if got := genOK.With("manual", "ok").Value(); got != 1 {
		t.Fatalf("generations_total{manual,ok} = %d, want 1", got)
	}
	genDur := reg.HistogramVec("deeprest_pipeline_generation_seconds",
		"Wall-clock duration of one training generation, train through publish.",
		obs.DurationBuckets, "trigger")
	if got := genDur.With("manual").Count(); got != 1 {
		t.Fatalf("generation_seconds{manual} count = %d, want 1", got)
	}
	active := reg.Gauge("deeprest_active_generation",
		"Version of the model generation currently serving queries (0 before the first publish).")
	if got := active.Value(); got != 1 {
		t.Fatalf("active_generation = %v, want 1", got)
	}
	ckpt := reg.CounterVec("deeprest_checkpoint_ops_total",
		"Model checkpoint operations by kind (write, recover) and result (ok, error).",
		"op", "result")
	if got := ckpt.With("write", "ok").Value(); got != 1 {
		t.Fatalf("checkpoint_ops_total{write,ok} = %d, want 1", got)
	}

	// The fresh windows are enough for a verdict: the tick either keeps it
	// in the status with the gauge at 0, or trips it, sets the gauge and
	// retrains under trigger "drift" (whose publish clears the status).
	p.TickDrift(context.Background())
	regressed := reg.Gauge("deeprest_quality_regressed",
		"1 while the last early-retrain verdict on the active generation tripped, else 0.")
	st := p.Status()
	gens := 1 // checkpointed: the manual generation, and a drift retrain's
	switch {
	case st.LastDrift != nil:
		if st.LastDrift.Windows != quality.MinVerdictWindows || st.LastDrift.Reason != "" || regressed.Value() != 0 {
			t.Fatalf("verdict = %+v with deeprest_quality_regressed %v", st.LastDrift, regressed.Value())
		}
	case genOK.With("drift", "ok").Value() != 1 || regressed.Value() != 1:
		t.Fatalf("no verdict in the status and no drift retrain (regressed gauge %v)", regressed.Value())
	default:
		gens = 2
	}

	// A failing run (unknown pair) counts as an error, not a publish.
	bad := app.Pair{Component: "NoSuch", Resource: app.CPU}
	if _, err := p.TrainOnce(0, 0, []app.Pair{bad}, "manual"); err == nil {
		t.Fatal("TrainOnce with unknown pair succeeded")
	}
	if got := genOK.With("manual", "error").Value(); got != 1 {
		t.Fatalf("generations_total{manual,error} = %d, want 1", got)
	}

	// A restarted pipeline recovers the checkpoint and restores the gauge.
	reg2 := obs.NewRegistry()
	opts2 := quickOpts()
	opts2.Metrics = reg2
	p2, err := New(opts2, cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	n, err := p2.Recover()
	if err != nil || n != gens {
		t.Fatalf("Recover = %d, %v; want %d generations", n, err, gens)
	}
	ckpt2 := reg2.CounterVec("deeprest_checkpoint_ops_total",
		"Model checkpoint operations by kind (write, recover) and result (ok, error).",
		"op", "result")
	if got := ckpt2.With("recover", "ok").Value(); got != uint64(gens) {
		t.Fatalf("checkpoint_ops_total{recover,ok} = %d, want %d", got, gens)
	}
	active2 := reg2.Gauge("deeprest_active_generation",
		"Version of the model generation currently serving queries (0 before the first publish).")
	if got := active2.Value(); got != float64(gens) {
		t.Fatalf("recovered active_generation = %v, want %d", got, gens)
	}
}

func TestUninstrumentedPipelineIsNoOp(t *testing.T) {
	store := toyStore(t, 1, 92)
	p := newScoredPipeline(t, quickOpts(), DefaultConfig(), store)
	// Metrics nil: every handle is a nil no-op; nothing may panic.
	if _, err := p.TrainOnce(0, store.NumWindows()-quality.MinVerdictWindows, []app.Pair{cpuPair}, "manual"); err != nil {
		t.Fatal(err)
	}
	p.TickDrift(context.Background())
}

// nanSource is a telemetry store one of whose utilization samples is NaN,
// once on is set — what a scraper writes when a component's exporter is down.
type nanSource struct {
	Source
	pair app.Pair
	on   bool
}

func (s *nanSource) Metrics(from, to int) (map[app.Pair][]float64, error) {
	usage, err := s.Source.Metrics(from, to)
	if err == nil && s.on {
		series := append([]float64(nil), usage[s.pair]...)
		series[len(series)/2] = math.NaN()
		usage[s.pair] = series
	}
	return usage, err
}

// TestNonFiniteLossFailsTheGeneration: telemetry that drives an expert's loss
// to NaN fails the generation, naming the pair; the failure is counted, and
// the generation serving before it keeps serving — NaN weights are never
// published.
func TestNonFiniteLossFailsTheGeneration(t *testing.T) {
	store := toyStore(t, 1, 93)
	reg := obs.NewRegistry()
	opts := quickOpts()
	opts.Metrics = reg
	src := &nanSource{Source: store, pair: cpuPair}
	p, err := New(opts, DefaultConfig(), src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.TrainOnce(0, 0, []app.Pair{cpuPair}, "manual"); err != nil {
		t.Fatal(err)
	}
	before := p.Registry().Active()

	src.on = true
	_, err = p.TrainOnce(0, 0, []app.Pair{cpuPair}, "manual")
	if err == nil || !strings.Contains(err.Error(), cpuPair.String()) || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("TrainOnce over NaN telemetry: err = %v, want a non-finite loss naming %s", err, cpuPair)
	}
	if got := p.Registry().Active(); got != before || got.Version != 1 {
		t.Fatalf("active generation changed to %+v after a failed train", got)
	}
	gens := reg.CounterVec("deeprest_pipeline_generations_total",
		"Training generations by trigger (manual, scheduled, drift) and result (ok, error).",
		"trigger", "result")
	if ok, bad := gens.With("manual", "ok").Value(), gens.With("manual", "error").Value(); ok != 1 || bad != 1 {
		t.Fatalf("generations_total ok=%d error=%d, want 1 and 1", ok, bad)
	}
	if st := p.Status(); !strings.Contains(st.LastError, "non-finite") {
		t.Fatalf("status.LastError = %q", st.LastError)
	}
}
