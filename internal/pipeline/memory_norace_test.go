//go:build !race

package pipeline

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/workload"
)

// liveHeap returns the bytes of reachable heap objects after two full
// collections (the second frees what the first's finalizers released).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestPublishedGenerationHoldsOneCopyOfWeights is the memory wall, machine
// independent: learning the social network at Hidden 32 (76 experts, 67
// features, 6.2 MB of weights) and publishing it grows the live heap by the
// weights and a quarter — no gradients, no engine copy, no encoder buffer
// survive the learn; what does, beside the weights, is the attention matrix and
// name tables (P² entries each), the σ(mask) gates, the synthesizer, the
// store's feature cache and allocator rounding. Built without -race: the
// detector's shadow memory is heap too.
func TestPublishedGenerationHoldsOneCopyOfWeights(t *testing.T) {
	spec, mix, err := topo.Resolve("social")
	if err != nil {
		t.Fatal(err)
	}
	prog := workload.Uniform(1, workload.DaySpec{Shape: workload.TwoPeak{}, Mix: mix, PeakRPS: 30})
	prog.WindowsPerDay = 48
	cluster, err := sim.NewCluster(spec, 17)
	if err != nil {
		t.Fatal(err)
	}
	run, err := cluster.Run(prog.Generate())
	if err != nil {
		t.Fatal(err)
	}
	store := telemetry.NewServer(run.WindowSeconds)
	store.RecordRun(run)
	run, cluster = nil, nil

	opts := core.DefaultOptions()
	opts.Estimator.Hidden = 32
	opts.Estimator.Epochs = 1
	opts.Estimator.AttentionEpochs = 1
	cfg := DefaultConfig()
	cfg.CheckpointDir = t.TempDir() // the checkpoint writer runs too
	p, err := New(opts, cfg, store)
	if err != nil {
		t.Fatal(err)
	}

	before := liveHeap()
	g, err := p.TrainOnce(0, 0, nil, "manual")
	if err != nil {
		t.Fatal(err)
	}
	after := liveHeap()
	requireNoGradients(t, "published", g)

	weights := uint64(g.Model().WeightBytes())
	grew := after - before
	t.Logf("%d experts, weights %.2f MB, live heap grew %.2f MB (%.2f×)",
		g.Experts(), float64(weights)/1e6, float64(grew)/1e6, float64(grew)/float64(weights))
	if after < before || grew > weights+weights/4 {
		t.Fatalf("publishing %d bytes of weights grew the live heap by %d, more than 1.25 × the weights", weights, grew)
	}
	runtime.KeepAlive(p)
	runtime.KeepAlive(store)
}
