package pipeline

import (
	"context"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/testutil"
)

func TestRegistryBoundedHistory(t *testing.T) {
	store := toyStore(t, 1, 91)
	cfg := DefaultConfig()
	cfg.MaxHistory = 2
	p, err := New(quickOpts(), cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := p.TrainOnce(0, 0, []app.Pair{cpuPair}, "manual"); err != nil {
			t.Fatal(err)
		}
	}
	gens := p.Registry().Generations()
	if len(gens) != 2 || gens[0].Version != 2 || gens[1].Version != 3 {
		t.Fatalf("retained versions = %v", versions(gens))
	}
	if _, err := p.Registry().Activate(1); err == nil {
		t.Fatal("evicted version still activatable")
	}
	// The active generation survives eviction even when it is the oldest.
	if _, err := p.Registry().Activate(2); err != nil {
		t.Fatal(err)
	}
	if _, err := p.TrainOnce(0, 0, nil, "scheduled"); err != nil {
		t.Fatal(err)
	}
	got := versions(p.Registry().Generations())
	if len(got) != 2 || got[len(got)-1] != 4 {
		t.Fatalf("versions after publish over rollback = %v", got)
	}
}

func versions(gens []*Generation) []int {
	out := make([]int, len(gens))
	for i, g := range gens {
		out[i] = g.Version
	}
	return out
}

// TestCheckpointRestartRoundTrip is the acceptance path: registry save →
// process restart (fresh registry) → load → the recovered generation serves
// byte-identical estimates.
func TestCheckpointRestartRoundTrip(t *testing.T) {
	store := toyStore(t, 1, 92)
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.CheckpointDir = dir
	p, err := New(quickOpts(), cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.TrainOnce(0, 0, []app.Pair{cpuPair}, "manual"); err != nil {
		t.Fatal(err)
	}
	g2, err := p.TrainOnce(0, 0, nil, "scheduled")
	if err != nil {
		t.Fatal(err)
	}
	windows, err := store.Traces(0, store.NumWindows())
	if err != nil {
		t.Fatal(err)
	}
	want, err := g2.System.ExpectedUtilization(windows)
	if err != nil {
		t.Fatal(err)
	}

	// "Restart": a brand-new pipeline over the same checkpoint dir.
	p2, err := New(quickOpts(), cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	n, err := p2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("recovered %d generations, want 2", n)
	}
	act := p2.Active()
	if act == nil || act.Version != 2 || act.Trigger != "recovered" {
		t.Fatalf("active after recover = %+v", act)
	}
	if p2.Status().TrainedTo != store.NumWindows() {
		t.Fatalf("trainedTo after recover = %d", p2.Status().TrainedTo)
	}
	got, err := act.System.ExpectedUtilization(windows)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("pair count %d != %d", len(got), len(want))
	}
	for pr, w := range want {
		g := got[pr]
		for i := range w.Exp {
			if g.Exp[i] != w.Exp[i] || g.Low[i] != w.Low[i] || g.Up[i] != w.Up[i] {
				t.Fatalf("%s window %d: recovered estimate differs (%v vs %v)", pr, i, g.Exp[i], w.Exp[i])
			}
		}
	}
	// Rollback still works across the restart, and the version counter
	// resumes past the recovered generations.
	if _, err := p2.Registry().Activate(1); err != nil {
		t.Fatal(err)
	}
	g3, err := p2.TrainOnce(0, 0, []app.Pair{cpuPair}, "manual")
	if err != nil {
		t.Fatal(err)
	}
	if g3.Version != 3 {
		t.Fatalf("post-recover version = %d, want 3", g3.Version)
	}
}

// TestScheduledRetrainAfterRebasedStore: after a restart the telemetry
// store restarts at window zero, so the recovered trained-to mark can
// exceed the store size. The loop must rebase instead of stalling until
// the old window count is reached again.
func TestScheduledRetrainAfterRebasedStore(t *testing.T) {
	store := toyStore(t, 1, 94)
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.CheckpointDir = dir
	p, err := New(quickOpts(), cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.TrainOnce(0, 0, []app.Pair{cpuPair}, "manual"); err != nil {
		t.Fatal(err)
	}

	// "Restart": only part of the history gets re-ingested.
	_, _, run := testutil.ToyTelemetry(t, 1, 30, 94)
	small := telemetry.NewServer(run.WindowSeconds)
	record := func(w int) {
		usage := make(sim.Usage, len(run.Usage))
		for pr, series := range run.Usage {
			usage[pr] = series[w]
		}
		small.Record(sim.WindowResult{Batches: run.Windows[w], Usage: usage})
	}
	for w := 0; w < 20; w++ {
		record(w)
	}
	p2, err := New(quickOpts(), cfg, small)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Recover(); err != nil {
		t.Fatal(err)
	}
	if p2.Status().TrainedTo <= small.NumWindows() {
		t.Fatalf("precondition: recovered mark %d should exceed store %d",
			p2.Status().TrainedTo, small.NumWindows())
	}

	// Re-ingested history alone is not "fresh": no retrain, but the mark
	// rebases to the store size instead of stalling at the old count.
	p2.scheduledRetrain(context.Background(), "scheduled")
	if got := len(p2.Registry().Generations()); got != 1 {
		t.Fatalf("retrained on re-ingested history: %d generations", got)
	}
	if p2.Status().TrainedTo != small.NumWindows() {
		t.Fatalf("trainedTo = %d, want rebased to %d", p2.Status().TrainedTo, small.NumWindows())
	}

	// One genuinely fresh window re-arms the loop.
	record(20)
	p2.scheduledRetrain(context.Background(), "scheduled")
	if got := len(p2.Registry().Generations()); got != 2 {
		t.Fatalf("fresh window did not trigger a retrain: %d generations", got)
	}
	if p2.Status().TrainedTo != small.NumWindows() {
		t.Fatalf("trainedTo after retrain = %d, want %d", p2.Status().TrainedTo, small.NumWindows())
	}
}

func TestCorruptCheckpointFailsLoudly(t *testing.T) {
	store := toyStore(t, 1, 93)
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.CheckpointDir = dir
	p, err := New(quickOpts(), cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.TrainOnce(0, 0, []app.Pair{cpuPair}, "manual"); err != nil {
		t.Fatal(err)
	}
	paths, _ := filepath.Glob(filepath.Join(dir, "gen-*.ckpt"))
	if len(paths) != 1 {
		t.Fatalf("checkpoints on disk = %v", paths)
	}

	corrupt := func(t *testing.T, mutate func(string)) {
		t.Helper()
		data, err := os.ReadFile(paths[0])
		if err != nil {
			t.Fatal(err)
		}
		defer os.WriteFile(paths[0], data, 0o644) // restore for the next case
		mutate(paths[0])
		p2, err := New(quickOpts(), cfg, store)
		if err != nil {
			t.Fatal(err)
		}
		n, err := p2.Recover()
		if err == nil {
			t.Fatal("corrupt checkpoint recovered without error")
		}
		if !strings.Contains(err.Error(), "corrupt checkpoint") {
			t.Fatalf("error does not name the corruption: %v", err)
		}
		if n != 0 || p2.Active() != nil {
			t.Fatal("corrupt recovery half-activated a model")
		}
	}

	t.Run("garbage", func(t *testing.T) {
		corrupt(t, func(path string) {
			if err := os.WriteFile(path, []byte("not a checkpoint"), 0o644); err != nil {
				t.Fatal(err)
			}
		})
	})
	t.Run("trailing checksum", func(t *testing.T) {
		corrupt(t, func(path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] ^= 0x01 // the model before it is intact
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		})
	})
	t.Run("truncated", func(t *testing.T) {
		corrupt(t, func(path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// TestOldFormatCheckpointRefusedByName pins the migration story: a
// checkpoint in an old layout — format 1, one gob value with the model
// nested as bytes, or format 2, whose model is one gob value per expert — is
// refused with an error that names its format, not as generic corruption.
func TestOldFormatCheckpointRefusedByName(t *testing.T) {
	type checkpointV1 struct {
		Version     int
		Trigger     string
		Model       []byte
		Checksum    uint64
		Checksummed bool
	}
	for format, meta := range map[int]any{
		1: checkpointV1{Version: 1, Trigger: "manual", Model: make([]byte, 4096), Checksummed: true},
		2: checkpointMeta{Format: 2, Version: 1, Trigger: "manual"},
	} {
		path := filepath.Join(t.TempDir(), "gen-000001.ckpt")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := gob.NewEncoder(f).Encode(meta); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		_, err = readCheckpoint(path, nil)
		want := fmt.Sprintf("gen-000001.ckpt has format %d, this build reads format 3", format)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("a format-%d checkpoint: %v, want %q", format, err, want)
		}
	}
}
