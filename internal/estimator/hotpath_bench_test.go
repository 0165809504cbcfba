package estimator

import (
	"syscall"
	"testing"
	"time"

	"repro/internal/app"
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
	m, x, targets, err := buildModel(run.Windows, usage, cfg, nil)
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
	ws := newWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Experts[p].forward(ws, day, nil); err != nil {
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
	ws := newWorkspace()
	slab := newSlab(day, 1, e.InDim, e.Hidden, m.Cfg.ChunkLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.trajectory(ws, slab, 0)
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
	m, _, err := TrainWarm(run.Windows, run.Usage, cfg, nil, nil)
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
func socialDay(tb testing.TB) *sim.Run { return simDay(tb, "social", 48) }

// simDay simulates one day of the application appArg names, cut into the
// given number of windows.
func simDay(tb testing.TB, appArg string, windows int) *sim.Run {
	tb.Helper()
	spec, mix, err := topo.Resolve(appArg)
	if err != nil {
		tb.Fatal(err)
	}
	prog := workload.Uniform(1, workload.DaySpec{Shape: workload.TwoPeak{}, Mix: mix, PeakRPS: 30})
	prog.WindowsPerDay = windows
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
// the per-worker workspaces.
func BenchmarkTrainSocial128(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Hidden = 128
	cfg.Epochs = 3
	benchTrain(b, socialDay(b), cfg)
}

// BenchmarkTrainGen150 is one cold learn at the shape of miss-gen150's
// set-up: a generated 150-component topology (399 experts, 257 features) at
// width 16, 24 windows, one phase-A epoch and the default six of phase B.
func BenchmarkTrainGen150(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Hidden = 16
	cfg.Epochs = 1
	benchTrain(b, simDay(b, "gen:seed=7,components=150", 24), cfg)
}

// benchTrain times Train over run. Beside ns/op, which is wall time with
// GOMAXPROCS workers training at once, it reports cpu-ms/op: the process's
// user and system CPU per learn, which is what the repo benchmark's
// learn_cpu_s counts in the daemon.
func benchTrain(b *testing.B, run *sim.Run, cfg Config) {
	b.ReportAllocs()
	b.ResetTimer()
	cpu0 := processCPU()
	for i := 0; i < b.N; i++ {
		if _, _, err := TrainWarm(run.Windows, run.Usage, cfg, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(processCPU()-cpu0)/float64(b.N)/1e6, "cpu-ms/op")
}

// processCPU is the user and system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
