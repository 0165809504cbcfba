package drift

import (
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/estimator"
	"repro/internal/estimator/infer"
	"repro/internal/testutil"
	"repro/internal/trace"
)

func quickConfig() estimator.Config {
	cfg := estimator.DefaultConfig()
	cfg.Hidden = 4
	cfg.Epochs = 10
	cfg.AttentionEpochs = 0
	cfg.ChunkLen = 24
	return cfg
}

// trainToy trains a small model over two toy days and returns it with its
// training telemetry.
func trainToy(t *testing.T) (*estimator.Model, [][]trace.Batch, map[app.Pair][]float64) {
	t.Helper()
	_, _, run := testutil.ToyTelemetry(t, 2, 30, 71)
	p := app.Pair{Component: "Service", Resource: app.CPU}
	usage := testutil.FocusPairs(run.Usage, p)
	m, err := estimator.Train(run.Windows, usage, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m, run.Windows, usage
}

// measure scores m on windows the way its callers do: the estimates come from
// the model's compiled engine.
func measure(t *testing.T, det *Detector, m *estimator.Model, windows [][]trace.Batch, actual map[app.Pair][]float64) (Signal, error) {
	t.Helper()
	eng, err := infer.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	series := m.Space.ExtractSeries(windows)
	est, err := eng.Predict(series)
	if err != nil {
		return Signal{}, err
	}
	return det.MeasureVectors(series, est, m.Pairs, actual)
}

func TestNoDriftOnTrainingData(t *testing.T) {
	m, windows, usage := trainToy(t)
	det := NewDetector()
	// Loose concept thresholds: in-sample error of the quick config is
	// small but not tiny, and this test is about the verdict plumbing.
	det.MaxMeanMAPE = 60
	det.MinCoverage = 0.2
	sig, err := measure(t, det, m, windows, usage)
	if err != nil {
		t.Fatal(err)
	}
	if sig.Drifted {
		t.Fatalf("training data flagged as drift: %+v", sig)
	}
	if sig.UnknownPathFrac != 0 {
		t.Errorf("unknown paths on training data: %f", sig.UnknownPathFrac)
	}
	if sig.Windows != len(windows) {
		t.Errorf("windows = %d, want %d", sig.Windows, len(windows))
	}
}

func TestConceptDriftFlagged(t *testing.T) {
	m, windows, usage := trainToy(t)
	p := app.Pair{Component: "Service", Resource: app.CPU}
	inflated := make([]float64, len(usage[p]))
	for i, v := range usage[p] {
		inflated[i] = 8 * v
	}
	det := NewDetector()
	det.MaxMeanMAPE = 60
	sig, err := measure(t, det, m, windows, map[app.Pair][]float64{p: inflated})
	if err != nil {
		t.Fatal(err)
	}
	if !sig.Drifted {
		t.Fatalf("8x utilization not flagged: %+v", sig)
	}
	if sig.Reason == "" || sig.WorstPair != p {
		t.Errorf("reason=%q worst=%s", sig.Reason, sig.WorstPair)
	}
	if sig.PairMAPE[p] < 80 {
		t.Errorf("MAPE on 8x data suspiciously low: %.1f%%", sig.PairMAPE[p])
	}
}

func TestTopologyDriftFlagged(t *testing.T) {
	m, windows, usage := trainToy(t)
	// A "new version" renames every operation: every span visit lands on
	// an unknown invocation path.
	renamed := make([][]trace.Batch, len(windows))
	for w, batches := range windows {
		nb := make([]trace.Batch, len(batches))
		for i, b := range batches {
			clone := b.Trace.Root.Clone()
			renameOps(clone, "_v2")
			nb[i] = trace.Batch{Trace: trace.Trace{API: b.Trace.API, Root: clone}, Count: b.Count}
		}
		renamed[w] = nb
	}
	sig, err := measure(t, NewDetector(), m, renamed, usage)
	if err != nil {
		t.Fatal(err)
	}
	if sig.UnknownPathFrac < 0.9 {
		t.Fatalf("unknown fraction = %.2f, want ~1", sig.UnknownPathFrac)
	}
	if !sig.Drifted || !strings.Contains(sig.Reason, "topology") {
		t.Fatalf("topology drift not flagged: %+v", sig)
	}
}

func TestMeasureEmptyWindows(t *testing.T) {
	m, _, _ := trainToy(t)
	if _, err := measure(t, NewDetector(), m, nil, nil); err == nil {
		t.Fatal("no error on empty windows")
	}
}

func renameOps(s *trace.Span, sfx string) {
	s.Operation += sfx
	for _, c := range s.Children {
		renameOps(c, sfx)
	}
}
