package core_test

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/features"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/testutil"
)

// TestCompileRefusalIsCountedAndWarned: a system the inference engine
// refuses shows at the daemon's default log level and in /metrics, answers
// every query with the compile error instead of another implementation's
// result, and is never activated — the generation serving before it keeps
// serving.
func TestCompileRefusalIsCountedAndWarned(t *testing.T) {
	var logBuf bytes.Buffer
	opts := core.DefaultOptions()
	opts.Estimator.Hidden = 6
	opts.Estimator.Epochs = 10
	opts.Estimator.AttentionEpochs = 2
	opts.Estimator.ChunkLen = 24
	opts.Metrics = obs.NewRegistry()
	opts.Logger = slog.New(slog.NewTextHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelWarn}))

	refused := core.Restore(&estimator.Model{}, nil, opts) // no experts: Compile refuses
	if refused.Engine() != nil || refused.EngineErr() == nil {
		t.Fatal("engine compiled from an empty model")
	}
	var scrape bytes.Buffer
	if err := opts.Metrics.WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(scrape.String(), "deeprest_infer_compile_failures_total 1\n") {
		t.Errorf("refusal not counted:\n%s", scrape.String())
	}
	if line := logBuf.String(); !strings.Contains(line, "level=WARN") || !strings.Contains(line, "pairs=0") {
		t.Errorf("refusal not logged at Warn with the pair count: %q", line)
	}

	// Queries return the compile error; nothing retries elsewhere.
	if _, err := refused.ExpectedUtilizationVectors([]features.Vector{{}}); err != refused.EngineErr() {
		t.Errorf("ExpectedUtilizationVectors err = %v, want the compile error", err)
	}
	if _, err := refused.EstimateTrafficBatch(nil); err != refused.EngineErr() {
		t.Errorf("EstimateTrafficBatch err = %v, want the compile error", err)
	}

	// The registry refuses to activate it; the active generation stays.
	_, _, run := testutil.ToyTelemetry(t, 1, 30, 5)
	p := app.Pair{Component: "DB", Resource: app.CPU}
	good, err := core.LearnFromData(run.Windows, testutil.FocusPairs(run.Usage, p), opts)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := pipeline.NewRegistry(2, "")
	if err != nil {
		t.Fatal(err)
	}
	active, err := reg.Publish(context.Background(), &pipeline.Generation{System: good})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish(context.Background(), &pipeline.Generation{System: refused}); err == nil ||
		!strings.Contains(err.Error(), refused.EngineErr().Error()) {
		t.Fatalf("Publish of a refused system: err = %v, want the compile error", err)
	}
	if reg.Active() != active || len(reg.Generations()) != 1 {
		t.Fatalf("refused publish disturbed the registry: active v%d, %d generations",
			reg.Active().Version, len(reg.Generations()))
	}
	if _, err := reg.Active().System.EstimateTraffic(testutil.ToyProgram(1, 40, 6).Generate()); err != nil {
		t.Fatalf("previously active generation stopped serving: %v", err)
	}
}
