package estimator_test

import (
	"io"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/app"
	"repro/internal/estimator"
	"repro/internal/estimator/infer"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/testutil"
)

// The ablations of DESIGN.md §4. Each is the one architecture with some
// parameters pinned before training (estimator.TrainPinned) or a training
// knob changed; there is no switch that removes a part.

var (
	ablationOnce   sync.Once
	ablationRunner *experiments.Runner
)

// benchAblation trains the social write-IOps expert with cfg modified by mod
// and pinned by pin, and reports its MAPE on the learning traffic's first
// day, in sample (the query's traces synthesized from its API counts) — the
// metric the attribution-sensitive design choices exist to improve.
func benchAblation(b *testing.B, mod func(*estimator.Config), pin func(*estimator.Expert)) {
	ablationOnce.Do(func() {
		p := experiments.DefaultParams(io.Discard)
		p.Quick = true
		p.Reps = 2
		ablationRunner = experiments.NewRunner(p)
	})
	l, err := ablationRunner.Social()
	if err != nil {
		b.Fatal(err)
	}
	target := app.Pair{Component: "PostStorageMongoDB", Resource: app.WriteIOps}
	usage := map[app.Pair][]float64{target: l.LearnRun.Usage[target]}
	cfg := estimator.DefaultConfig()
	cfg.Hidden = 4
	cfg.Epochs = 30
	cfg.AttentionEpochs = 0
	cfg.ChunkLen = 24
	mod(&cfg)

	query := l.LearnTraffic.Slice(0, l.WPD) // reuse geometry for a query day
	synthetic, err := l.System.Synthesizer().Synthesize(query, 1)
	if err != nil {
		b.Fatal(err)
	}
	truth := l.LearnRun.Slice(0, l.WPD)

	var mape float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := estimator.TrainPinned(l.LearnRun.Windows, usage, cfg, pin)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		series := m.Space.ExtractSeries(synthetic)
		b.StartTimer()
		eng, err := infer.Compile(m)
		if err != nil {
			b.Fatal(err)
		}
		est, err := eng.Predict(series)
		if err != nil {
			b.Fatal(err)
		}
		mape = eval.MAPE(est[target].Exp, truth.Usage[target])
	}
	b.ReportMetric(mape, "MAPE%")
}

func keep(*estimator.Config) {}

func BenchmarkAblationFull(b *testing.B) { benchAblation(b, keep, estimator.Full) }

// BenchmarkAblationNoMask: σ(m) pinned open, σ ≡ 1.
func BenchmarkAblationNoMask(b *testing.B) { benchAblation(b, keep, estimator.NoMask) }

// BenchmarkAblationHalfMask: σ(m) frozen at its initial 0.5.
func BenchmarkAblationHalfMask(b *testing.B) { benchAblation(b, keep, estimator.HalfMask) }

// BenchmarkAblationNoBypass: the bypass S pinned at zero.
func BenchmarkAblationNoBypass(b *testing.B) { benchAblation(b, keep, estimator.NoBypass) }

func BenchmarkAblationNoL1(b *testing.B) {
	benchAblation(b, func(c *estimator.Config) { c.MaskL1 = 0; c.BypassL1 = 0 }, estimator.Full)
}

func BenchmarkAblationMSEInsteadOfQuantile(b *testing.B) {
	// Approximated by collapsing the interval: δ→0 trains all three
	// heads toward the median, so the intervals lose calibration.
	benchAblation(b, func(c *estimator.Config) { c.Delta = 0.0 }, estimator.Full)
}

// TestPinnedAblationsServe: a pinned parameter keeps its pin through both
// training phases, and a pinned model is an ordinary model of the one
// architecture — it compiles, and the engine reads it with the tape's bits.
func TestPinnedAblationsServe(t *testing.T) {
	_, _, run := testutil.ToyTelemetry(t, 1, 30, 13)
	for _, c := range []struct {
		name   string
		pin    func(*estimator.Expert)
		pinned func(*estimator.Expert) []float64
		value  float64
	}{
		{"no mask", estimator.NoMask, func(e *estimator.Expert) []float64 { return e.Mask.M.Data }, 800},
		{"half mask", estimator.HalfMask, func(e *estimator.Expert) []float64 { return e.Mask.M.Data }, 0},
		{"no bypass", estimator.NoBypass, func(e *estimator.Expert) []float64 { return slices.Concat(e.Bypass.W.Data, e.Bypass.B.Data) }, 0},
	} {
		cfg := estimator.DefaultConfig()
		cfg.Epochs, cfg.AttentionEpochs, cfg.ChunkLen = 2, 1, 24
		m, err := estimator.TrainPinned(run.Windows, run.Usage, cfg, c.pin)
		if err != nil {
			t.Fatal(err)
		}
		for p, e := range m.Experts {
			for i, v := range c.pinned(e) {
				if math.Float64bits(v) != math.Float64bits(c.value) {
					t.Fatalf("%s: %s: pinned value %d moved to %v", c.name, p, i, v)
				}
			}
		}
		eng, err := infer.Compile(m)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		series := m.Space.ExtractSeries(run.Windows[:testutil.ToyDay])
		want, err := m.PredictVectors(series)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Predict(series)
		if err != nil {
			t.Fatal(err)
		}
		for p, w := range want {
			for k, s := range [][2][]float64{{w.Exp, got[p].Exp}, {w.Low, got[p].Low}, {w.Up, got[p].Up}} {
				for i := range s[0] {
					if math.Float64bits(s[0][i]) != math.Float64bits(s[1][i]) {
						t.Fatalf("%s: %s series %d window %d: engine %v, tape %v", c.name, p, k, i, s[1][i], s[0][i])
					}
				}
			}
		}
	}
}
