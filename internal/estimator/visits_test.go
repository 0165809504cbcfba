package estimator_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/app"
	"repro/internal/estimator"
	"repro/internal/estimator/infer"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workload"
)

// dayOf simulates one 48-window day of the application arg names.
func dayOf(tb testing.TB, arg string) *sim.Run {
	tb.Helper()
	spec, mix, err := topo.Resolve(arg)
	if err != nil {
		tb.Fatal(err)
	}
	prog := workload.Uniform(1, workload.DaySpec{Shape: workload.TwoPeak{}, Mix: mix, PeakRPS: 30})
	prog.WindowsPerDay = 48
	c, err := sim.NewCluster(spec, 17)
	if err != nil {
		tb.Fatal(err)
	}
	run, err := c.Run(prog.Generate())
	if err != nil {
		tb.Fatal(err)
	}
	return run
}

// quickConfig is the estimator configuration of the quick experiments.
func quickConfig() estimator.Config {
	cfg := estimator.DefaultConfig()
	cfg.Hidden, cfg.Epochs, cfg.AttentionEpochs, cfg.ChunkLen = 4, 30, 4, 24
	return cfg
}

// TestVisitingRuleIsThePinnedDenseModel: an expert that reads only the paths
// visiting its component is the dense expert trained with σ(m) pinned to
// exactly 0 on every other path — every parameter at its position, and every
// estimate, on the tape and on the engine, Float64bits for bits.
func TestVisitingRuleIsThePinnedDenseModel(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two quick models per application")
	}
	for _, arg := range []string{"social", "gen:seed=7,components=30"} {
		run := dayOf(t, arg)
		cfg := quickConfig()
		m, _, err := estimator.TrainWarm(run.Windows, run.Usage, cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		dense, err := estimator.TrainDensePinned(run.Windows, run.Usage, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dim, read := m.Space.Dim(), 0
		for _, p := range m.Pairs {
			e, d := m.Experts[p], dense.Experts[p]
			read += e.InDim
			// Each restricted parameter with its dense counterpart, the
			// columns the expert reads picked from the dense matrices.
			ep, dp := e.Params(), d.Params()
			for i, par := range ep {
				for j, v := range par.Data {
					at := j
					switch i {
					case 0: // the mask, one value an input
						at = e.Inputs[j]
					case 1, 4, 7, 13: // W· and S, a column an input
						at = j/e.InDim*dim + e.Inputs[j%e.InDim]
					}
					if math.Float64bits(v) != math.Float64bits(dp[i].Data[at]) {
						t.Fatalf("%s %s: %s[%d] = %v, the pinned dense model's %v", arg, p, par.Name, j, v, dp[i].Data[at])
					}
				}
			}
		}
		t.Logf("%s: %d experts read %.1f of %d paths each", arg, len(m.Pairs), float64(read)/float64(len(m.Pairs)), dim)
		// Both models on the tape and on the engine: four reads, one set of
		// bits.
		series := m.Space.ExtractSeries(run.Windows)
		var want map[app.Pair]estimator.Estimate
		for _, model := range []*estimator.Model{m, dense} {
			tape, err := model.PredictVectors(series)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := infer.Compile(model)
			if err != nil {
				t.Fatal(err)
			}
			served, err := eng.Predict(series)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = tape
			}
			for _, got := range []map[app.Pair]estimator.Estimate{tape, served} {
				for p, w := range want {
					g := got[p]
					for _, s := range [][2][]float64{{w.Exp, g.Exp}, {w.Low, g.Low}, {w.Up, g.Up}} {
						for i := range s[0] {
							if len(s[1]) != len(s[0]) || math.Float64bits(s[0][i]) != math.Float64bits(s[1][i]) {
								t.Fatalf("%s %s: window %d: an estimate differs from the restricted model's tape", arg, p, i)
							}
						}
					}
				}
			}
		}
	}
}

// TestVisitingRuleKeepsPace: an expert reading a few of the paths steps its
// mask and bypass at dense/inputs the rate, so a step moves its estimate as
// far as the all-paths expert's moves — at four epochs of a small model its
// estimates are about as close as the dense model's, not the half-trained
// ones a base-rate bypass leaves (mean sMAPE 86 % against 45 % on social;
// interval coverage 0.23).
func TestVisitingRuleKeepsPace(t *testing.T) {
	for _, arg := range []string{"social", "gen:seed=7,components=30"} {
		run := dayOf(t, arg)
		cfg := estimator.DefaultConfig()
		cfg.Hidden, cfg.Epochs, cfg.AttentionEpochs, cfg.ChunkLen = 3, 4, 0, 24
		m, _, err := estimator.TrainWarm(run.Windows, run.Usage, cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		dense, err := estimator.TrainDense(run.Windows, run.Usage, cfg)
		if err != nil {
			t.Fatal(err)
		}
		smape, cover := inSample(t, m, run)
		denseSMAPE, denseCover := inSample(t, dense, run)
		t.Logf("%s: mean sMAPE %.1f %% (dense %.1f %%), coverage %.2f (dense %.2f)", arg, smape, denseSMAPE, cover, denseCover)
		if smape > 1.25*denseSMAPE || cover < 0.6 {
			t.Errorf("%s: mean sMAPE %.1f %% against the dense model's %.1f %%, coverage %.2f: the restricted model lags", arg, smape, denseSMAPE, cover)
		}
	}
}

// inSample is m's mean sMAPE (percent) and interval coverage over every
// pair and window of the run it trained on.
func inSample(t *testing.T, m *estimator.Model, run *sim.Run) (smape, coverage float64) {
	t.Helper()
	est, err := m.PredictVectors(m.Space.ExtractSeries(run.Windows))
	if err != nil {
		t.Fatal(err)
	}
	n, covered := 0, 0
	for p, e := range est {
		act := run.Usage[p]
		for w, v := range e.Exp {
			if den := (math.Abs(v) + math.Abs(act[w])) / 2; den > 0 {
				smape += 100 * math.Abs(v-act[w]) / den
			}
			if act[w] >= e.Low[w] && act[w] <= e.Up[w] {
				covered++
			}
			n++
		}
	}
	return smape / float64(n), float64(covered) / float64(n)
}

// TestUnvisitedExpertsServe: an expert whose component no path visits — 9 of
// this topology's 78 — reads nothing: no mask, W· or bypass values. It trains,
// saves, loads, compiles and predicts from its biases and attention, and the
// loaded model's engine keeps the trained model's tape bits.
func TestUnvisitedExpertsServe(t *testing.T) {
	run := dayOf(t, "gen:seed=7,components=30")
	cfg := quickConfig()
	cfg.Epochs, cfg.AttentionEpochs = 2, 1
	m, _, err := estimator.TrainWarm(run.Windows, run.Usage, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := estimator.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	idle := 0
	for _, p := range loaded.Pairs {
		e := loaded.Experts[p]
		if e.InDim != len(m.Experts[p].Inputs) {
			t.Fatalf("%s: loaded with %d inputs, trained with %d", p, e.InDim, len(m.Experts[p].Inputs))
		}
		if e.InDim == 0 {
			idle++
			if len(e.Mask.M.Data)+len(e.Cell.Wz.Data)+len(e.Bypass.W.Data) != 0 {
				t.Fatalf("%s reads no path but holds input weights", p)
			}
		}
	}
	if idle == 0 {
		t.Fatal("no expert without inputs: the fixture tests nothing")
	}
	series := m.Space.ExtractSeries(run.Windows)
	want, err := m.PredictVectors(series)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := infer.Compile(loaded)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Predict(series)
	if err != nil {
		t.Fatal(err)
	}
	for p, w := range want {
		for i := range w.Exp {
			if math.Float64bits(w.Exp[i]) != math.Float64bits(got[p].Exp[i]) || math.Float64bits(w.Up[i]) != math.Float64bits(got[p].Up[i]) {
				t.Fatalf("%s window %d: the loaded engine's estimate differs from the trained tape's", p, i)
			}
		}
	}
	t.Logf("%d of %d experts read no path", idle, len(m.Pairs))
}
