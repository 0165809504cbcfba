// Package testutil provides shared fixtures for tests and benchmarks: small
// simulated deployments with deterministic telemetry, so individual test
// files do not repeat the simulate-learn-query plumbing.
package testutil

import (
	"testing"

	"repro/internal/app"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ToyDay is the number of windows per day used by toy fixtures: short
// enough to keep tests fast, long enough to carry a visible diurnal shape.
const ToyDay = 48

// ToyProgram returns a traffic program for the Toy application: `days` days
// of two-peak traffic at the given peak RPS with a fixed seed.
func ToyProgram(days int, peakRPS float64, seed int64) workload.Program {
	p := workload.Uniform(days, workload.DaySpec{
		Shape:   workload.TwoPeak{},
		Mix:     workload.Mix{"/read": 0.7, "/write": 0.3},
		PeakRPS: peakRPS,
	})
	p.WindowsPerDay = ToyDay
	p.WindowSeconds = 60
	p.Seed = seed
	return p
}

// ToyTelemetry simulates `days` days of Toy-application traffic and returns
// the cluster (so callers can continue it with query traffic), the traffic,
// and the run.
func ToyTelemetry(t testing.TB, days int, peakRPS float64, seed int64) (*sim.Cluster, *workload.Traffic, *sim.Run) {
	t.Helper()
	cluster, traffic, run, err := sim.Simulate(app.Toy(), ToyProgram(days, peakRPS, seed), seed, nil)
	if err != nil {
		t.Fatalf("sim.Simulate: %v", err)
	}
	return cluster, traffic, run
}

// FocusPairs filters a usage map down to the given pairs.
func FocusPairs(usage map[app.Pair][]float64, pairs ...app.Pair) map[app.Pair][]float64 {
	out := make(map[app.Pair][]float64, len(pairs))
	for _, p := range pairs {
		if s, ok := usage[p]; ok {
			out[p] = s
		}
	}
	return out
}
