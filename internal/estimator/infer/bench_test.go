package infer_test

import (
	"testing"

	"repro/internal/app"
	"repro/internal/estimator"
	"repro/internal/estimator/infer"
	"repro/internal/features"
	"repro/internal/testutil"
)

// Serving-path benchmarks. They share BenchmarkModelPredict's fixture (same
// telemetry, same training configuration, one day of windows) so ns/op and allocs/op are directly
// comparable: ModelPredict is the eval-tape baseline, InferPredict is the
// compiled tape-free engine on the identical computation, InferBatched is
// the multi-series pass core.EstimateTrafficBatch runs for offline forecasts.

func benchEngine(b *testing.B) (*infer.Engine, []features.Vector, int) {
	b.Helper()
	_, _, run := testutil.ToyTelemetry(b, 3, 40, 21)
	cfg := estimator.DefaultConfig()
	cfg.Epochs = 2
	cfg.AttentionEpochs = 1
	cfg.ChunkLen = 24
	m, _, err := estimator.TrainWarm(run.Windows, run.Usage, cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := infer.Compile(m)
	if err != nil {
		b.Fatal(err)
	}
	return eng, m.Space.ExtractSeries(run.Windows[:testutil.ToyDay]), len(m.Pairs)
}

// BenchmarkInferPredict measures one warm tape-free prediction of the full
// multi-expert model (attention enabled) over one day — the engine
// counterpart of BenchmarkModelPredict. Warm means the scratch pool is
// primed: this is every serving request after the first.
func BenchmarkInferPredict(b *testing.B) {
	eng, day, pairs := benchEngine(b)
	out := make(map[app.Pair]estimator.Estimate, pairs)
	if err := eng.PredictInto(day, out); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.PredictInto(day, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInferPredictSocial128 is BenchmarkInferPredict at the paper's
// width rather than the toy's: the social network (76 experts, 67 features)
// with a 128-unit GRU per expert, one 12-window read, expert passes inline
// on the calling goroutine (SetPool(nil)) so ns/op is CPU per request — the
// shape of the repo benchmark's miss-social128 workload, where the dense
// recurrent mat-vecs are nearly all of the work.
func BenchmarkInferPredictSocial128(b *testing.B) {
	benchInlineRead(b, "social", 128, 12)
}

// BenchmarkInferPredictGen150 is the same read at the other end of the input
// share: the generated 150-component topology (399 experts, 257 features)
// with a 16-unit GRU, one 6-window read — the shape of the repo benchmark's
// miss-gen150 workload, where 94 % of the gate multiply-adds are the input
// products W·x and the recurrence little.
func BenchmarkInferPredictGen150(b *testing.B) {
	benchInlineRead(b, "gen:seed=7,components=150", 16, 6)
}

// benchInlineRead times warm reads of the first windows of the training day
// on the calling goroutine alone.
func benchInlineRead(b *testing.B, arg string, hidden, windows int) {
	m, day := trainOnWidth(b, arg, hidden)
	eng, err := infer.Compile(m)
	if err != nil {
		b.Fatal(err)
	}
	eng.SetPool(nil)
	series := day[:windows]
	out := make(map[app.Pair]estimator.Estimate, len(m.Pairs))
	if err := eng.PredictInto(series, out); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.PredictInto(series, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInferBatched measures one engine pass over 8 day-long series —
// what core.EstimateTrafficBatch runs for the control loop's forecasts —
// and reports the effective per-request cost.
func BenchmarkInferBatched(b *testing.B) {
	eng, day, _ := benchEngine(b)
	const reqs = 8
	batch := make([][]features.Vector, reqs)
	for i := range batch {
		batch[i] = day
	}
	if _, err := eng.PredictBatch(batch); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.PredictBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perReq := float64(b.Elapsed().Nanoseconds()) / float64(b.N*reqs)
	b.ReportMetric(perReq, "ns/req")
}
