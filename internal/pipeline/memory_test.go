package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/estimator"
)

// requireNoGradients fails when any parameter of the generation carries a
// gradient: nobody is training a published model.
func requireNoGradients(t *testing.T, what string, g *Generation) {
	t.Helper()
	for _, p := range g.Model().Pairs {
		for _, par := range g.Model().Experts[p].Params() {
			if par.Grad != nil {
				t.Fatalf("%s: %s carries a %d-float gradient", what, par.Name, len(par.Grad))
			}
		}
	}
}

// TestRecoveredGenerationHoldsOneCopyOfWeights: neither a trained nor a
// recovered generation carries gradients, and the recovered one serves from
// the checkpoint's decoded weights through a compiled engine.
func TestRecoveredGenerationHoldsOneCopyOfWeights(t *testing.T) {
	store := toyStore(t, 1, 88)
	cfg := DefaultConfig()
	cfg.CheckpointDir = t.TempDir()
	p, err := New(quickOpts(), cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	g, err := p.TrainOnce(0, 0, nil, "manual")
	if err != nil {
		t.Fatal(err)
	}
	requireNoGradients(t, "trained", g)

	p2, err := New(quickOpts(), cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := p2.Recover(); err != nil || n != 1 {
		t.Fatalf("Recover = %d, %v", n, err)
	}
	rec := p2.Active()
	requireNoGradients(t, "recovered", rec)
	if rec.System.Engine() == nil {
		t.Fatal("recovered generation has no engine")
	}
	if got, want := rec.Model().WeightBytes(), g.Model().WeightBytes(); got != want || got == 0 {
		t.Fatalf("recovered weights = %d bytes, trained %d", got, want)
	}
}

// TestCheckpointAllocatesPerExpertNotPerModel: the checkpoint writer streams
// the model through the hash into the file, so what it allocates is bounded
// by one expert's encoding (times gob's buffer growth, see
// estimator.TestSaveAllocatesPerExpertNotPerModel), not by the model's.
func TestCheckpointAllocatesPerExpertNotPerModel(t *testing.T) {
	store := toyStore(t, 1, 89)
	opts := quickOpts()
	opts.Estimator.Hidden = 24 // experts large enough to dwarf the fixed costs
	p, err := New(opts, DefaultConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	g, err := p.TrainOnce(0, 0, nil, "manual")
	if err != nil {
		t.Fatal(err)
	}
	var whole bytes.Buffer
	if err := streamCheckpoint(&whole, g); err != nil {
		t.Fatal(err)
	}
	perExpert := whole.Len() / g.Experts()
	if g.Experts() < 8 {
		t.Fatalf("fixture has %d experts; the bound needs a model much larger than one of them", g.Experts())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := streamCheckpoint(io.Discard, g); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	grew := after.TotalAlloc - before.TotalAlloc
	t.Logf("checkpoint of %d experts, %d bytes: %d bytes allocated, %d per expert", g.Experts(), whole.Len(), grew, perExpert)
	// 6 × the encoder's message buffer plus the 4 KB file buffer and the
	// encoders' type tables.
	if bound := uint64(6*perExpert + 16<<10); grew > bound {
		t.Fatalf("checkpoint writer allocated %d bytes, bound %d (one expert ≈ %d, model %d)", grew, bound, perExpert, whole.Len())
	}
}

// TestWarmRetrainLeavesServingGenerationUntouched is the immutability
// invariant the in-place engine stands on: generation N+1 trains warm from
// N while N serves, and N's estimates and weights are byte-identical before,
// during and after — training copies N's parameters, it never writes them.
// Under -race the detector checks the same thing from the other side.
func TestWarmRetrainLeavesServingGenerationUntouched(t *testing.T) {
	store := toyStore(t, 1, 87)
	opts := quickOpts()
	opts.Estimator.AttentionEpochs = 1
	// Generation 2's phase A starts only once the reader below has served:
	// the overlap the test is about is certain, whatever the scheduler does
	// (on one CPU the reader would otherwise not run before the learn ends).
	var overlap chan struct{}
	opts.Estimator.Stage = func(stage string) func() {
		if stage == estimator.StageTrunks && overlap != nil {
			<-overlap
		}
		return func() {}
	}
	p, err := New(opts, DefaultConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := p.TrainOnce(0, 0, nil, "manual")
	if err != nil {
		t.Fatal(err)
	}
	windows, err := store.Traces(0, 12)
	if err != nil {
		t.Fatal(err)
	}
	series := g1.Model().Space.ExtractSeries(windows)
	serve := func() []byte {
		est, err := g1.System.Engine().Predict(series)
		if err != nil {
			t.Error(err)
			return nil
		}
		out, err := json.Marshal(pairKeyed(est))
		if err != nil {
			t.Error(err)
		}
		return out
	}
	weights := func() []byte {
		var buf bytes.Buffer
		if err := g1.Model().Save(&buf); err != nil {
			t.Error(err)
		}
		return buf.Bytes()
	}
	wantEst, wantWeights := serve(), weights()

	ctx, stop := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	served := 0
	overlap = make(chan struct{})
	var once sync.Once
	started := func() { once.Do(func() { close(overlap) }) }
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer started() // a reader that gives up must not hold the learn
		for ctx.Err() == nil {
			if got := serve(); !bytes.Equal(got, wantEst) {
				t.Error("generation 1's estimate changed while generation 2 trained")
				return
			}
			served++
			started()
		}
	}()
	g2, err := p.TrainOnce(0, 0, nil, "scheduled")
	stop()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !g2.Warm || g2.Version != 2 {
		t.Fatalf("generation 2 = version %d, warm %v", g2.Version, g2.Warm)
	}
	if served == 0 {
		t.Fatal("no estimate was served while generation 2 trained")
	}
	if !bytes.Equal(serve(), wantEst) {
		t.Error("generation 1's estimate changed after generation 2 published")
	}
	if !bytes.Equal(weights(), wantWeights) {
		t.Error("generation 1's weights changed: the warm retrain wrote into the serving model")
	}
	requireNoGradients(t, "serving generation", g1)
}

func pairKeyed(est map[app.Pair]estimator.Estimate) map[string]estimator.Estimate {
	out := make(map[string]estimator.Estimate, len(est))
	for p, e := range est {
		out[p.String()] = e
	}
	return out
}

// TestEveryFlippedByteOfACheckpointIsRefused: wherever one byte of the file
// rots — metadata, header, weights, or the trailing checksum itself — the
// checkpoint is refused before it is activated.
func TestEveryFlippedByteOfACheckpointIsRefused(t *testing.T) {
	store := toyStore(t, 1, 86)
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
	path := filepath.Join(dir, "gen-000001.ckpt")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rebuild := func(m *estimator.Model) *core.System { return core.Restore(m, nil, quickOpts()) }
	if _, err := readCheckpoint(path, rebuild); err != nil {
		t.Fatalf("the intact checkpoint does not load: %v", err)
	}
	for i := range good {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x20
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if g, err := readCheckpoint(path, rebuild); err == nil {
			t.Fatalf("byte %d of %d flipped and the checkpoint loaded as version %d", i, len(good), g.Version)
		}
	}
}
