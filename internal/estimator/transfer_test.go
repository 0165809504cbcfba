package estimator

import (
	"testing"

	"repro/internal/app"
	"repro/internal/eval"
	"repro/internal/testutil"
)

// TestTransferAcceleratesConvergence reproduces the §6 transfer-learning
// claim at unit scale: warm-starting from a well-trained expert lets a
// heavily budget-constrained training run reach an accuracy that cold
// initialisation cannot.
func TestTransferAcceleratesConvergence(t *testing.T) {
	p := app.Pair{Component: "DB", Resource: app.CPU}

	// Source: well-trained on 3 days.
	_, _, srcRun := testutil.ToyTelemetry(t, 3, 40, 31)
	srcCfg := testConfig()
	srcCfg.Epochs = 20
	src, _, err := TrainWarm(srcRun.Windows, testutil.FocusPairs(srcRun.Usage, p), srcCfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Target: a different deployment of the same application (fresh
	// seed), with a tiny training budget.
	_, _, tgtRun := testutil.ToyTelemetry(t, 1, 40, 32)
	tinyCfg := testConfig()
	tinyCfg.Epochs = 1
	tinyCfg.AttentionEpochs = 0
	usage := testutil.FocusPairs(tgtRun.Usage, p)

	cold, _, err := TrainWarm(tgtRun.Windows, usage, tinyCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, _, err := TrainWarm(tgtRun.Windows, usage, tinyCfg, src)
	if err != nil {
		t.Fatal(err)
	}

	coldEst, err := cold.PredictVectors(cold.Space.ExtractSeries(tgtRun.Windows))
	if err != nil {
		t.Fatal(err)
	}
	warmEst, err := warm.PredictVectors(warm.Space.ExtractSeries(tgtRun.Windows))
	if err != nil {
		t.Fatal(err)
	}
	coldMAPE := eval.MAPE(coldEst[p].Exp, tgtRun.Usage[p])
	warmMAPE := eval.MAPE(warmEst[p].Exp, tgtRun.Usage[p])
	t.Logf("1-epoch budget: cold=%.2f%% warm=%.2f%%", coldMAPE, warmMAPE)
	if warmMAPE >= coldMAPE {
		t.Errorf("warm start (%.2f%%) should beat cold start (%.2f%%) under a tiny budget", warmMAPE, coldMAPE)
	}
	if warmMAPE > 25 {
		t.Errorf("warm start MAPE %.2f%% too high", warmMAPE)
	}
}

// TestUpdateAdaptsToDrift reproduces the §6 concept-drift scenario: the
// application's per-request cost changes (a new version ships), the stale
// model mis-estimates, and a retrain over one day of fresh telemetry,
// warm-started from the stale model, repairs it.
func TestUpdateAdaptsToDrift(t *testing.T) {
	p := app.Pair{Component: "Service", Resource: app.CPU}

	_, _, oldRun := testutil.ToyTelemetry(t, 3, 40, 34)
	cfg := testConfig()
	m, _, err := TrainWarm(oldRun.Windows, testutil.FocusPairs(oldRun.Usage, p), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The new version consumes 1.6x the CPU per request: replay the
	// telemetry with inflated demand above the base load.
	drift := func(run []float64) []float64 {
		out := make([]float64, len(run))
		for i, v := range run {
			base := 5.0 // Service base CPU in the toy spec
			out[i] = base + (v-base)*1.6
		}
		return out
	}
	_, _, newRun := testutil.ToyTelemetry(t, 1, 40, 35)
	newUsage := map[app.Pair][]float64{p: drift(newRun.Usage[p])}

	est, err := m.PredictVectors(m.Space.ExtractSeries(newRun.Windows))
	if err != nil {
		t.Fatal(err)
	}
	before := eval.MAPE(est[p].Exp, newUsage[p])

	adapted, seeded, err := TrainWarm(newRun.Windows, newUsage, cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	if seeded != 1 {
		t.Errorf("seeded %d experts from the stale model, want 1", seeded)
	}
	est, err = adapted.PredictVectors(adapted.Space.ExtractSeries(newRun.Windows))
	if err != nil {
		t.Fatal(err)
	}
	after := eval.MAPE(est[p].Exp, newUsage[p])
	t.Logf("drift MAPE before=%.2f%% after=%.2f%%", before, after)
	if after >= before {
		t.Errorf("the warm retrain did not adapt: %.2f%% -> %.2f%%", before, after)
	}
	if after > 12 {
		t.Errorf("post-retrain MAPE %.2f%% too high", after)
	}
}
