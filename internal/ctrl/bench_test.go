package ctrl

import "testing"

// BenchmarkCtrlLoop measures one full closed-loop run (64 windows, 3
// managed components, reactive policy) — the per-simulated-day cost the
// autoscale experiment pays per policy per scenario.
func BenchmarkCtrlLoop(b *testing.B) {
	env := toyEnv(twoPeakCounts())
	cfg := testConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(env, cfg, &Reactive{Up: 0.7, Down: 0.3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlan tracks the offline planner itself (one simulated month at
// 5-minute windows, hourly reservations).
func BenchmarkPlan(b *testing.B) {
	series := make([]float64, 30*288)
	for i := range series {
		series[i] = 100 + 50*float64(i%288)/288
	}
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Plan(series, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
