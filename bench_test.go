// Benchmarks regenerating the paper's evaluation artifacts (one per table
// and figure), the §6 scalability measurements, and the ablation studies of
// the design choices DESIGN.md calls out.
//
// Accuracy-style results are reported as custom benchmark metrics (MAPE%,
// accuracy%, ...) next to the usual ns/op, so
//
//	go test -bench=. -benchmem
//
// reproduces both the shape of the paper's numbers and the cost of
// producing them. All benches run at the reduced "quick" scale; the full
// 7-day evaluation is `go run ./cmd/experiments`.
package deeprest_test

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"

	"repro/internal/app"
	"repro/internal/des"
	"repro/internal/estimator"
	"repro/internal/estimator/infer"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/workload"
)

var (
	benchOnce   sync.Once
	benchRunner *experiments.Runner
)

// runner provisions the shared quick-scale experiment runner once per
// process; the labs inside are cached, so each benchmark times only its own
// query/evaluation work plus any model it explicitly trains.
func runner(b *testing.B) *experiments.Runner {
	b.Helper()
	benchOnce.Do(func() {
		p := experiments.DefaultParams(io.Discard)
		p.Quick = true
		p.Reps = 2
		benchRunner = experiments.NewRunner(p)
	})
	return benchRunner
}

// benchExperiment runs one registered experiment per iteration and reports
// a selection of its headline metrics.
func benchExperiment(b *testing.B, id string, metrics ...string) {
	r := runner(b)
	if _, err := r.Social(); err != nil { // provision outside the timer
		b.Fatal(err)
	}
	b.ResetTimer()
	var res experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = r.Run(id)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, m := range metrics {
		b.ReportMetric(res.Metrics[m], m)
	}
}

func BenchmarkFig9LearningTraffic(b *testing.B) {
	benchExperiment(b, "fig9", "mean_peaks_per_day")
}

func BenchmarkFig10ComposeDominated(b *testing.B) {
	benchExperiment(b, "fig10", "cpu_deeprest_mape", "write_iops_deeprest_mape")
}

func BenchmarkFig11ReadDominated(b *testing.B) {
	benchExperiment(b, "fig11", "iops_ratio_deeprest", "iops_ratio_simple")
}

func BenchmarkFig12Heatmap(b *testing.B) {
	benchExperiment(b, "fig12", "mean_mape_deeprest", "mean_mape_simple")
}

func BenchmarkFig13QueryScenarios(b *testing.B) {
	benchExperiment(b, "fig13", "scale_3x_volume_ratio")
}

func BenchmarkFig14UnseenScale(b *testing.B) {
	benchExperiment(b, "fig14", "scale3_deeprest", "scale3_simple")
}

func BenchmarkFig15UnseenComposition(b *testing.B) {
	benchExperiment(b, "fig15", "unseen_deeprest", "unseen_simple")
}

func BenchmarkFig16UnseenShape(b *testing.B) {
	benchExperiment(b, "fig16", "2peak_to_flat_deeprest", "flat_to_2peak_deeprest")
}

func BenchmarkFig17Hotel3x(b *testing.B) {
	r := runner(b)
	if _, err := r.Hotel(); err != nil {
		b.Fatal(err)
	}
	benchExperiment(b, "fig17", "mape_deeprest", "mape_simple")
}

func BenchmarkFig18ShapeChangeExamples(b *testing.B) {
	benchExperiment(b, "fig18", "peakiness_deeprest", "peakiness_resrc_aware")
}

func BenchmarkTable1SynthAccuracy(b *testing.B) {
	benchExperiment(b, "table1", "min_accuracy")
}

func BenchmarkFig19Ransomware(b *testing.B) {
	benchExperiment(b, "fig19", "deeprest_false_positives", "baseline_false_positives")
}

func BenchmarkFig20Cryptojacking(b *testing.B) {
	benchExperiment(b, "fig20", "deeprest_true_positives", "deeprest_false_positives")
}

func BenchmarkFig21ExpertPCA(b *testing.B) {
	benchExperiment(b, "fig21", "separation_ratio")
}

func BenchmarkFig22MaskInterpretation(b *testing.B) {
	benchExperiment(b, "fig22", "dominance_correct_fraction")
}

// --- §6 scalability ---

// toyTelemetry builds a small learning corpus for the micro-benchmarks.
func toyTelemetry(b *testing.B, days int) *sim.Run {
	b.Helper()
	cluster, err := sim.NewCluster(app.Toy(), 1)
	if err != nil {
		b.Fatal(err)
	}
	prog := workload.Uniform(days, workload.DaySpec{
		Shape: workload.TwoPeak{}, Mix: workload.Mix{"/read": 0.7, "/write": 0.3}, PeakRPS: 40,
	})
	prog.WindowsPerDay = 48
	prog.WindowSeconds = 60
	run, err := cluster.Run(prog.Generate())
	if err != nil {
		b.Fatal(err)
	}
	return run
}

func benchCfg() estimator.Config {
	cfg := estimator.DefaultConfig()
	cfg.Epochs = 10
	cfg.AttentionEpochs = 0
	cfg.ChunkLen = 24
	return cfg
}

// compiled compiles m into the engine every estimate is read through. The
// benches that time a read time its Predict, with the feature vectors
// extracted before the timer starts.
func compiled(b *testing.B, m *estimator.Model) *infer.Engine {
	b.Helper()
	eng, err := infer.Compile(m)
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// BenchmarkScalabilityTrainExpert measures the per-expert training cost the
// paper reports as 5.4 s/expert on a GPU-backed PyTorch stack.
func BenchmarkScalabilityTrainExpert(b *testing.B) {
	run := toyTelemetry(b, 3)
	p := app.Pair{Component: "Service", Resource: app.CPU}
	usage := map[app.Pair][]float64{p: run.Usage[p]}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := estimator.TrainWarm(run.Windows, usage, benchCfg(), nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScalabilityInference measures one-day inference per expert on the
// compiled engine (the paper: 1.589 ms/expert/day).
func BenchmarkScalabilityInference(b *testing.B) {
	run := toyTelemetry(b, 3)
	p := app.Pair{Component: "Service", Resource: app.CPU}
	usage := map[app.Pair][]float64{p: run.Usage[p]}
	m, _, err := estimator.TrainWarm(run.Windows, usage, benchCfg(), nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	eng := compiled(b, m)
	day := m.Space.ExtractSeries(run.Windows[:48])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Predict(day); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScalabilityInputDim measures how engine inference scales with the
// feature-space dimensionality (the paper: 10× and 100× larger inputs cost
// only 1.08× and 1.21× — here the cost of the dense input products grows
// linearly, which the sub-benchmarks make visible).
func BenchmarkScalabilityInputDim(b *testing.B) {
	for _, mult := range []int{1, 10, 100} {
		b.Run(map[int]string{1: "x1", 10: "x10", 100: "x100"}[mult], func(b *testing.B) {
			run := toyTelemetry(b, 2)
			dim := padFeatureDim(run, mult)
			p := app.Pair{Component: "Service", Resource: app.CPU}
			usage := map[app.Pair][]float64{p: run.Usage[p]}
			cfg := benchCfg()
			cfg.Epochs = 2
			m, _, err := estimator.TrainWarm(dim, usage, cfg, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			eng := compiled(b, m)
			day := m.Space.ExtractSeries(dim[:48])
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Predict(day); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// padFeatureDim synthesises extra distinct invocation paths by cloning each
// window's traces under renamed operations, multiplying the feature-space
// dimensionality.
func padFeatureDim(run *sim.Run, mult int) [][]trace.Batch {
	if mult <= 1 {
		return run.Windows
	}
	out := make([][]trace.Batch, len(run.Windows))
	suffixes := make([]string, mult-1)
	for i := range suffixes {
		suffixes[i] = string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
	}
	for w, batches := range run.Windows {
		nw := append([]trace.Batch{}, batches...)
		for _, sfx := range suffixes {
			for _, bt := range batches {
				clone := bt.Trace.Root.Clone()
				renameOps(clone, sfx)
				nw = append(nw, trace.Batch{Trace: trace.Trace{API: bt.Trace.API + sfx, Root: clone}, Count: bt.Count})
			}
		}
		out[w] = nw
	}
	return out
}

func renameOps(s *trace.Span, sfx string) {
	s.Operation += sfx
	for _, c := range s.Children {
		renameOps(c, sfx)
	}
}

// BenchmarkTrainParallelism compares serial and parallel per-expert training
// over the full multi-expert toy model: layers.ForEach fans the experts out
// on GOMAXPROCS goroutines, so each leg sets GOMAXPROCS to its worker count.
// Experts train from per-expert deterministic seeds, so the worker count
// changes only the wall-clock, never the resulting model (see
// estimator.TestTrainParallelismDeterministic).
func BenchmarkTrainParallelism(b *testing.B) {
	run := toyTelemetry(b, 2)
	pooled := runtime.GOMAXPROCS(0)
	if pooled < 2 {
		pooled = 2 // still exercise the fan-out on single-core machines
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, pooled} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			runtime.GOMAXPROCS(workers)
			cfg := benchCfg()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := estimator.TrainWarm(run.Windows, run.Usage, cfg, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(workers), "workers")
		})
	}
}

// BenchmarkScalabilityModelSize reports the per-expert parameter count (the
// paper: 801.5 kB/expert).
func BenchmarkScalabilityModelSize(b *testing.B) {
	run := toyTelemetry(b, 2)
	p := app.Pair{Component: "Service", Resource: app.CPU}
	usage := map[app.Pair][]float64{p: run.Usage[p]}
	cfg := benchCfg()
	cfg.Epochs = 1
	var m *estimator.Model
	var err error
	for i := 0; i < b.N; i++ {
		m, _, err = estimator.TrainWarm(run.Windows, usage, cfg, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.Experts[p].NumParams()), "params/expert")
	b.ReportMetric(float64(m.Experts[p].NumParams()*8)/1024, "KiB/expert")
}

// BenchmarkSimulatorStep measures the substrate itself: one telemetry
// window of the full social network at peak load.
func BenchmarkSimulatorStep(b *testing.B) {
	spec, mix, err := topo.Resolve("social")
	if err != nil {
		b.Fatal(err)
	}
	cluster, err := sim.NewCluster(spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	reqs := map[string]int{}
	for api, frac := range mix.Normalize() {
		reqs[api] = int(frac * 60 * 300)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Step(reqs, 300); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeatureExtraction measures Algorithm 2 over one day of social
// network traces.
func BenchmarkFeatureExtraction(b *testing.B) {
	r := runner(b)
	l, err := r.Social()
	if err != nil {
		b.Fatal(err)
	}
	space := l.System.Model().Space
	day := l.LearnRun.Windows[:l.WPD]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		space.ExtractSeries(day)
	}
	b.ReportMetric(float64(space.Dim()), "feature-dim")
}

// --- ablations (DESIGN.md §4; the pinned ones are in internal/estimator) ---

// BenchmarkAblationAttention compares the full model's in-sample accuracy
// with and without phase B: without it α stays at +0, so every attention
// context is +0, and a read costs the same either way.
func BenchmarkAblationAttention(b *testing.B) {
	run := toyTelemetry(b, 3)
	for _, attn := range []bool{true, false} {
		name := "with"
		if !attn {
			name = "without"
		}
		b.Run(name, func(b *testing.B) {
			cfg := benchCfg()
			if attn {
				cfg.AttentionEpochs = 3
			}
			m, _, err := estimator.TrainWarm(run.Windows, run.Usage, cfg, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			p := app.Pair{Component: "DB", Resource: app.CPU}
			eng := compiled(b, m)
			series := m.Space.ExtractSeries(run.Windows)
			var mape float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				est, err := eng.Predict(series)
				if err != nil {
					b.Fatal(err)
				}
				mape = eval.MAPE(est[p].Exp, run.Usage[p])
			}
			b.ReportMetric(mape, "insample-MAPE%")
		})
	}
}

// BenchmarkDESSocialNetwork measures the request-level discrete-event
// simulator pushing one simulated minute of peak social-network traffic
// (events/second of simulation throughput).
func BenchmarkDESSocialNetwork(b *testing.B) {
	spec, mix, err := topo.Resolve("social")
	if err != nil {
		b.Fatal(err)
	}
	arrivals := map[string]float64{}
	for api, frac := range mix.Normalize() {
		arrivals[api] = frac * 40
	}
	b.ResetTimer()
	var completed int
	for i := 0; i < b.N; i++ {
		res, err := des.Run(spec, des.Config{
			Arrivals: arrivals, Duration: 60, Warmup: 5,
			Service: des.Exponential, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		completed = res.Completed
	}
	b.ReportMetric(float64(completed), "requests/run")
}

// BenchmarkExtAutoscale, BenchmarkExtShallow, and BenchmarkExtDrift cover
// the extension experiments (paper §2, §3, §6).
func BenchmarkExtAutoscale(b *testing.B) {
	benchExperiment(b, "autoscale", "violations_deeprest", "waste_deeprest")
}

func BenchmarkExtShallow(b *testing.B) {
	benchExperiment(b, "shallow", "linear_wins", "poly_wins")
}

func BenchmarkExtDrift(b *testing.B) {
	benchExperiment(b, "drift", "ComposePostService_cpu_before", "ComposePostService_cpu_after")
}
