package estimator

import (
	"testing"

	"repro/internal/app"
	"repro/internal/nn/ad"
	"repro/internal/nn/loss"
	"repro/internal/sim"
	"repro/internal/testutil"
	"repro/internal/topo"
	"repro/internal/workload"
)

// Hot-path benchmarks of the three loops everything sits on: one
// truncated-BPTT training epoch of a single expert, a gradient-free forward
// pass, and end-to-end multi-expert prediction.

func benchFixture(b *testing.B, pairs ...app.Pair) (*Model, [][]float64, map[app.Pair][]float64) {
	b.Helper()
	_, _, run := testutil.ToyTelemetry(b, 3, 40, 21)
	usage := run.Usage
	if len(pairs) > 0 {
		usage = testutil.FocusPairs(usage, pairs...)
	}
	cfg := DefaultConfig()
	cfg.ChunkLen = 24
	m, x, targets, err := buildModel(run.Windows, usage, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return m, x, targets
}

// BenchmarkTrainEpoch measures one full training epoch (chunked
// forward+backward+optimizer) of a single expert.
func BenchmarkTrainEpoch(b *testing.B) {
	p := app.Pair{Component: "Service", Resource: app.CPU}
	m, x, targets, cfg := benchExpertSetup(b, p)
	q := loss.Quantiles(cfg.Delta)
	ws := newWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := trainExpert(ws, m.Experts[p], x, targets[p], cfg, 1, q[:], cfg.Seed); err != nil {
			b.Fatal(err)
		}
	}
}

func benchExpertSetup(b *testing.B, p app.Pair) (*Model, [][]float64, map[app.Pair][]float64, Config) {
	b.Helper()
	m, x, targets := benchFixture(b, p)
	return m, x, targets, m.Cfg
}

// BenchmarkExpertForward measures the eval-tape forward pass of one expert
// over one day of windows, with a zero attention context — one occlusion
// probe of /v1/influence, and the per-expert core of the tape oracle.
func BenchmarkExpertForward(b *testing.B) {
	p := app.Pair{Component: "Service", Resource: app.CPU}
	m, x, _, _ := benchExpertSetup(b, p)
	day := x[:testutil.ToyDay]
	tape := ad.NewEvalTape()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Experts[p].forward(tape, day, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExpertHiddenStates measures the detached recurrence used for
// peer-state precompute (phase B and the tape oracle's attention).
func BenchmarkExpertHiddenStates(b *testing.B) {
	p := app.Pair{Component: "Service", Resource: app.CPU}
	m, x, _, _ := benchExpertSetup(b, p)
	day := x[:testutil.ToyDay]
	e := m.Experts[p]
	tape := ad.NewEvalTape()
	dst := make([]float64, len(day)*e.Hidden)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.hiddenInto(tape, day, dst)
	}
}

// BenchmarkModelPredict measures the tape oracle (Model.PredictVectors) over
// the full multi-expert toy model (attention enabled) and one day of feature
// vectors. Serving reads go through the compiled engine instead; the
// BenchmarkInferPredict family in internal/estimator/infer times those.
func BenchmarkModelPredict(b *testing.B) {
	_, _, run := testutil.ToyTelemetry(b, 3, 40, 21)
	cfg := DefaultConfig()
	cfg.Epochs = 2
	cfg.AttentionEpochs = 1
	cfg.ChunkLen = 24
	m, err := Train(run.Windows, run.Usage, cfg)
	if err != nil {
		b.Fatal(err)
	}
	day := m.Space.ExtractSeries(run.Windows[:testutil.ToyDay])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.PredictVectors(day); err != nil {
			b.Fatal(err)
		}
	}
}

// socialDay simulates one 48-window day of the social network (76 pairs, 67
// features), the application of the repo benchmark's miss-social128.
func socialDay(tb testing.TB) *sim.Run {
	tb.Helper()
	spec, mix, err := topo.Resolve("social")
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

// BenchmarkTrainSocial128 is one cold learn at the shape of the repo
// benchmark's miss-social128 set-up: the social network (76 experts, 67
// features) at the paper's width, 48 windows, three phase-A epochs and the
// default six of phase B — both phases, the peer-state pass between them and
// the per-worker workspaces, so ns/op moves with `learn_cpu_s` (divide by
// GOMAXPROCS for the wall share).
func BenchmarkTrainSocial128(b *testing.B) {
	run := socialDay(b)
	cfg := DefaultConfig()
	cfg.Hidden = 128
	cfg.Epochs = 3
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(run.Windows, run.Usage, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
