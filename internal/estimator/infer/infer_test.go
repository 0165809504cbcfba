package infer_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/app"
	"repro/internal/estimator"
	"repro/internal/estimator/infer"
	"repro/internal/features"
	"repro/internal/sim"
	"repro/internal/testutil"
	"repro/internal/topo"
	"repro/internal/workload"
)

// trainOn simulates one day of traffic for the named application (a builtin
// or a gen: topology), trains a small but fully featured model (mask,
// attention, bypass all on), and returns it with the day's feature series.
func trainOn(t *testing.T, arg string) (*estimator.Model, []features.Vector) {
	t.Helper()
	return trainOnWidth(t, arg, estimator.DefaultConfig().Hidden)
}

// trainOnWidth is trainOn with the GRU width chosen by the caller.
func trainOnWidth(t testing.TB, arg string, hidden int) (*estimator.Model, []features.Vector) {
	t.Helper()
	spec, mix, err := topo.Resolve(arg)
	if err != nil {
		t.Fatalf("Resolve(%s): %v", arg, err)
	}
	prog := workload.Uniform(1, workload.DaySpec{Shape: workload.TwoPeak{}, Mix: mix, PeakRPS: 30})
	prog.WindowsPerDay = 48
	c, err := sim.NewCluster(spec, 17)
	if err != nil {
		t.Fatalf("NewCluster(%s): %v", arg, err)
	}
	run, err := c.Run(prog.Generate())
	if err != nil {
		t.Fatalf("Run(%s): %v", arg, err)
	}
	cfg := estimator.DefaultConfig()
	cfg.Hidden = hidden
	cfg.Epochs = 1
	cfg.AttentionEpochs = 1
	cfg.ChunkLen = 24
	m, _, err := estimator.TrainWarm(run.Windows, run.Usage, cfg, nil)
	if err != nil {
		t.Fatalf("TrainWarm(%s): %v", arg, err)
	}
	return m, m.Space.ExtractSeries(run.Windows)
}

func sameBits(t *testing.T, ctx string, tape, engine map[app.Pair]estimator.Estimate) {
	t.Helper()
	if len(tape) != len(engine) {
		t.Fatalf("%s: %d tape pairs vs %d engine pairs", ctx, len(tape), len(engine))
	}
	for p, want := range tape {
		got, ok := engine[p]
		if !ok {
			t.Fatalf("%s: engine missing %s", ctx, p)
		}
		for _, s := range []struct {
			name      string
			want, got []float64
		}{{"exp", want.Exp, got.Exp}, {"low", want.Low, got.Low}, {"up", want.Up, got.Up}} {
			if len(s.want) != len(s.got) {
				t.Fatalf("%s: %s %s: %d vs %d samples", ctx, p, s.name, len(s.want), len(s.got))
			}
			for i := range s.want {
				if math.Float64bits(s.want[i]) != math.Float64bits(s.got[i]) {
					t.Fatalf("%s: %s %s[%d]: tape %x engine %x", ctx, p, s.name, i,
						math.Float64bits(s.want[i]), math.Float64bits(s.got[i]))
				}
			}
		}
	}
}

// TestEngineMatchesTapeOnApps pins the compiled engine to the eval-tape
// path bit for bit on every bundled application and on a generated
// topology: same experts, same attention peers, same descaling — any
// divergence in any float of any series fails.
func TestEngineMatchesTapeOnApps(t *testing.T) {
	for _, arg := range []string{"social", "hotel", "media", "gen:seed=5,components=24"} {
		t.Run(arg, func(t *testing.T) {
			m, series := trainOn(t, arg)
			eng, err := infer.Compile(m)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			want, err := m.PredictVectors(series)
			if err != nil {
				t.Fatalf("tape predict: %v", err)
			}
			got, err := eng.Predict(series)
			if err != nil {
				t.Fatalf("engine predict: %v", err)
			}
			sameBits(t, arg, want, got)

			// The inline (nil-pool) path must agree too: parallel fan-out
			// cannot change a single bit.
			eng.SetPool(nil)
			inline, err := eng.Predict(series)
			if err != nil {
				t.Fatalf("inline predict: %v", err)
			}
			sameBits(t, arg+"/inline", want, inline)
		})
	}
}

// TestEnginePredictBatchMatchesSingle checks the coalesced batch pass is
// the same computation as N independent predicts.
func TestEnginePredictBatchMatchesSingle(t *testing.T) {
	_, _, run := testutil.ToyTelemetry(t, 2, 35, 13)
	cfg := estimator.DefaultConfig()
	cfg.Epochs = 1
	cfg.AttentionEpochs = 1
	cfg.ChunkLen = 24
	m, _, err := estimator.TrainWarm(run.Windows, run.Usage, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := infer.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	full := m.Space.ExtractSeries(run.Windows)
	// Unequal lengths in one pass: a day, half of one, and series that leave
	// padding lanes (3, 13, 1) or span two blocks of windows (50).
	batch := [][]features.Vector{
		full[:testutil.ToyDay],
		full[testutil.ToyDay/2 : testutil.ToyDay],
		full[:3],
		full[:50],
		full[5:18],
		full[7:8],
	}
	got, err := eng.PredictBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(batch) {
		t.Fatalf("batch returned %d results for %d inputs", len(got), len(batch))
	}
	for b, series := range batch {
		want, err := eng.Predict(series)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "batch", want, got[b])
	}
}

// TestEngineWarmPredictAllocs enforces the near-zero-alloc contract of the
// warm path in a regular test, so an allocation regression fails go test
// instead of silently drifting a benchmark JSON: at the toy's width, and at
// the paper's 128, where a trajectory's work area carries 3·128² floats of
// U panels — a warm read must take its work areas off the free list, so it
// allocates less than one panel buffer's bytes.
func TestEngineWarmPredictAllocs(t *testing.T) {
	_, _, run := testutil.ToyTelemetry(t, 1, 30, 13)
	for _, hidden := range []int{estimator.DefaultConfig().Hidden, 128} {
		t.Run(fmt.Sprintf("hidden=%d", hidden), func(t *testing.T) {
			cfg := estimator.DefaultConfig()
			cfg.Hidden = hidden
			cfg.Epochs = 1
			cfg.AttentionEpochs = 1
			cfg.ChunkLen = 24
			m, _, err := estimator.TrainWarm(run.Windows, run.Usage, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := infer.Compile(m)
			if err != nil {
				t.Fatal(err)
			}
			series := m.Space.ExtractSeries(run.Windows)
			out := make(map[app.Pair]estimator.Estimate, len(m.Pairs))
			if err := eng.PredictInto(series, out); err != nil { // warm the scratch pool
				t.Fatal(err)
			}
			const runs = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs := testing.AllocsPerRun(runs, func() {
				if err := eng.PredictInto(series, out); err != nil {
					t.Fatal(err)
				}
			})
			runtime.ReadMemStats(&after)
			if allocs > 10 {
				t.Fatalf("warm PredictInto allocates %.1f/op, want <= 10", allocs)
			}
			// AllocsPerRun makes one call more than it counts. At the toy's
			// width the panels are smaller than a read's few small allocations.
			if per, panels := (after.TotalAlloc-before.TotalAlloc)/(runs+1), uint64(3*hidden*hidden*8); hidden == 128 && per >= panels {
				t.Fatalf("warm PredictInto allocates %d B/op, a work area's panels are %d B", per, panels)
			}
		})
	}
}

// TestEngineRejectsMismatchedSeries checks dimension validation: a vector
// extracted against a different feature space must error, not read out of
// bounds.
func TestEngineRejectsMismatchedSeries(t *testing.T) {
	_, _, run := testutil.ToyTelemetry(t, 1, 30, 13)
	cfg := estimator.DefaultConfig()
	cfg.Epochs = 0
	cfg.AttentionEpochs = 0
	m, _, err := estimator.TrainWarm(run.Windows, run.Usage, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := infer.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Predict([]features.Vector{{Counts: []float64{1}}}); err == nil {
		t.Fatal("expected error for mismatched feature dimensionality")
	}
}

// TestCompileRefusesPeersOutOfOrder: the engine adds every expert's peers in
// Model.Pairs order, so a hand-assembled model whose peer list is anything
// else — two peers swapped with their weights, the expert itself named, a
// peer missing — must not compile, as estimator.Load refuses to load it.
// The model trained beside them compiles.
func TestCompileRefusesPeersOutOfOrder(t *testing.T) {
	_, _, run := testutil.ToyTelemetry(t, 1, 30, 13)
	cfg := estimator.DefaultConfig()
	cfg.Epochs, cfg.AttentionEpochs = 0, 0
	m, _, err := estimator.TrainWarm(run.Windows, run.Usage, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Pairs) < 3 {
		t.Fatalf("need three experts, have %d", len(m.Pairs))
	}
	if _, err := infer.Compile(m); err != nil {
		t.Fatalf("trained model: %v", err)
	}
	attn := m.Experts[m.Pairs[1]].Attn
	peers, alpha := attn.Peers, attn.Alpha.Data
	for name, edit := range map[string]func(p []string, a []float64) ([]string, []float64){
		"swapped": func(p []string, a []float64) ([]string, []float64) {
			p[0], p[1], a[0], a[1] = p[1], p[0], a[1], a[0]
			return p, a
		},
		"self": func(p []string, a []float64) ([]string, []float64) {
			p[1] = m.Pairs[1].String()
			return p, a
		},
		"missing": func(p []string, a []float64) ([]string, []float64) { return p[1:], a[1:] },
	} {
		attn.Peers, attn.Alpha.Data = edit(append([]string(nil), peers...), append([]float64(nil), alpha...))
		if _, err := infer.Compile(m); err == nil {
			t.Errorf("%s peers %q: Compile accepted them", name, attn.Peers)
		}
	}
	attn.Peers, attn.Alpha.Data = peers, alpha
}

// TestEngineMixedAttention: in a hand-assembled model where one expert does
// not attend, that expert's context stays +0 beside panel neighbours whose
// contexts are formed, and every float still equals the tape's.
func TestEngineMixedAttention(t *testing.T) {
	_, _, run := testutil.ToyTelemetry(t, 1, 30, 13)
	cfg := estimator.DefaultConfig()
	cfg.Epochs, cfg.AttentionEpochs, cfg.ChunkLen = 1, 1, 24
	m, _, err := estimator.TrainWarm(run.Windows, run.Usage, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Pairs) < 3 {
		t.Fatalf("need three experts, have %d", len(m.Pairs))
	}
	m.Experts[m.Pairs[1]].UseAttention = false
	eng, err := infer.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	series := m.Space.ExtractSeries(run.Windows[:testutil.ToyDay])
	want, err := m.PredictVectors(series)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetPool(nil) // one work area serves every expert of the panel in turn
	for i := 0; i < 2; i++ {
		got, err := eng.Predict(series)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("mixed attention, read %d", i), want, got)
	}
}

// TestEngineRefusesNonFiniteFeature: a NaN or infinite feature is an error
// from Predict, PredictInto and PredictBatch alike, never an estimate.
func TestEngineRefusesNonFiniteFeature(t *testing.T) {
	_, _, run := testutil.ToyTelemetry(t, 1, 30, 13)
	cfg := estimator.DefaultConfig()
	cfg.Epochs, cfg.AttentionEpochs = 0, 0
	m, _, err := estimator.TrainWarm(run.Windows, run.Usage, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := infer.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	day := m.Space.ExtractSeries(run.Windows[:testutil.ToyDay])
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		series := append([]features.Vector(nil), day...)
		bad := append([]float64(nil), series[3].Counts...)
		bad[len(bad)-1] = v
		series[3] = features.Vector{Counts: bad}
		if _, err := eng.Predict(series); err == nil {
			t.Errorf("Predict with a %v feature: no error", v)
		}
		if err := eng.PredictInto(series, map[app.Pair]estimator.Estimate{}); err == nil {
			t.Errorf("PredictInto with a %v feature: no error", v)
		}
		if _, err := eng.PredictBatch([][]features.Vector{day, series}); err == nil {
			t.Errorf("PredictBatch with a %v feature: no error", v)
		}
	}
	if _, err := eng.Predict(day); err != nil {
		t.Fatalf("the finite day: %v", err)
	}
}

// TestEngineEdgeShapes walks the engine through the shapes that sit on the
// boundaries of the assembly kernels, each against the eval tape bit for
// bit: GRU widths below, at and between the 4- and 16-row rungs (the toy's
// 4, the fleet smoke's 6, the golden's 7, 20 = 16 + 4, 39 = 2×16 + 4 + 3,
// whose U has a column tail too) and the paper's 128, and a one-expert
// model, whose attention is off and whose context stays zero — each over
// series on the boundaries of the window kernel's lanes and the engine's
// blocks: a one-window series packs U's panels and never reads them, a
// 50-window one reads them across a block boundary. An empty series must
// come back as empty estimates, not reach a kernel.
func TestEngineEdgeShapes(t *testing.T) {
	_, _, run := testutil.ToyTelemetry(t, 1, 30, 13)
	var first app.Pair
	for p := range run.Usage {
		if first == (app.Pair{}) || p.String() < first.String() {
			first = p
		}
	}
	one := map[app.Pair][]float64{first: run.Usage[first]}
	for _, c := range []struct {
		name   string
		hidden int
		usage  map[app.Pair][]float64
		bare   bool // no mask, no bypass: the products read the request's input as it lies
	}{
		{"hidden=4", 4, run.Usage, false},
		{"hidden=6", 6, run.Usage, false},
		{"hidden=7", 7, run.Usage, false},
		{"hidden=20", 20, run.Usage, false},
		{"hidden=39", 39, run.Usage, false},
		{"hidden=128", 128, run.Usage, false},
		{"one-expert", 16, one, false},
		{"no-mask-no-bypass", 4, run.Usage, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := estimator.DefaultConfig()
			cfg.Hidden = c.hidden
			cfg.UseMask, cfg.LinearBypass = !c.bare, !c.bare
			cfg.Epochs = 1
			cfg.AttentionEpochs = 1
			cfg.ChunkLen = 24
			m, _, err := estimator.TrainWarm(run.Windows, c.usage, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := infer.Compile(m)
			if err != nil {
				t.Fatal(err)
			}
			day := m.Space.ExtractSeries(run.Windows[:testutil.ToyDay])
			twice := append(append([]features.Vector(nil), day...), day...)
			out := make(map[app.Pair]estimator.Estimate, len(m.Pairs))
			// The day fills its lanes; 1, 5 and 13 windows leave padding
			// lanes, 13 takes more than one pass of three lane groups, 50
			// more than one block of windows.
			for _, n := range []int{len(day), 1, 5, 13, 50} {
				series := twice[:n]
				want, err := m.PredictVectors(series)
				if err != nil {
					t.Fatal(err)
				}
				if err := eng.PredictInto(series, out); err != nil {
					t.Fatal(err)
				}
				sameBits(t, fmt.Sprintf("%s over %d windows", c.name, n), want, out)
			}

			if err := eng.PredictInto(nil, out); err != nil {
				t.Fatalf("empty series: %v", err)
			}
			for p, est := range out {
				if len(est.Exp)+len(est.Low)+len(est.Up) != 0 {
					t.Fatalf("empty series: %s has %d/%d/%d samples", p, len(est.Exp), len(est.Low), len(est.Up))
				}
			}
		})
	}
}
