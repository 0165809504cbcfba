package estimator

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/app"
	"repro/internal/testutil"
)

// TestTrainParallelismDeterministic: the per-expert worker pool must not
// change results. Every expert trains from its own deterministic seed
// (cfg.Seed + pair index), so a run at GOMAXPROCS 1 (one worker) and one at
// GOMAXPROCS 4 (four) produce byte-identical models.
func TestTrainParallelismDeterministic(t *testing.T) {
	_, _, run := testutil.ToyTelemetry(t, 1, 30, 61)
	usage := testutil.FocusPairs(run.Usage,
		app.Pair{Component: "Service", Resource: app.CPU},
		app.Pair{Component: "DB", Resource: app.CPU},
		app.Pair{Component: "DB", Resource: app.WriteIOps},
	)
	cfg := DefaultConfig()
	cfg.Hidden = 3
	cfg.Epochs = 5
	cfg.AttentionEpochs = 2
	cfg.ChunkLen = 24

	snapshots := make([][]byte, 0, 2)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, par := range []int{1, 4} {
		runtime.GOMAXPROCS(par)
		m, err := Train(run.Windows, usage, cfg)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		snapshots = append(snapshots, buf.Bytes())
	}
	if !bytes.Equal(snapshots[0], snapshots[1]) {
		t.Fatal("1-worker and 4-worker training produced different models")
	}
}

// TestFromModelWarmStart: warm-starting copies matching experts' parameters
// and silently skips pairs the source never learned or whose shapes differ.
func TestFromModelWarmStart(t *testing.T) {
	_, _, run := testutil.ToyTelemetry(t, 1, 30, 62)
	p := app.Pair{Component: "Service", Resource: app.CPU}
	q := app.Pair{Component: "DB", Resource: app.CPU}
	cfg := DefaultConfig()
	cfg.Hidden = 3
	cfg.Epochs = 3
	cfg.AttentionEpochs = 0
	cfg.ChunkLen = 24

	src, err := Train(run.Windows, testutil.FocusPairs(run.Usage, p), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Warm training with zero epochs: the new model's expert for p must
	// carry exactly the source parameters; q (absent from src) starts cold.
	c := cfg
	c.Epochs = 0
	warm, err := TrainWarm(run.Windows, testutil.FocusPairs(run.Usage, p, q), c, FromModel(src))
	if err != nil {
		t.Fatal(err)
	}
	sp, wp := src.Experts[p].Params(), warm.Experts[p].Params()
	for i := range wp {
		if len(sp[i].Data) != len(wp[i].Data) {
			continue // attention shapes differ with peer count
		}
		for j := range wp[i].Data {
			if wp[i].Data[j] != sp[i].Data[j] {
				t.Fatalf("param %s[%d] not copied by warm start", wp[i].Name, j)
			}
		}
	}

	// A nil source is a no-op, not a crash; so is a source of another width
	// (the pair starts cold).
	if _, err := TrainWarm(run.Windows, testutil.FocusPairs(run.Usage, p), c, FromModel(nil)); err != nil {
		t.Fatal(err)
	}
	c.Hidden = 2 * cfg.Hidden
	if _, err := TrainWarm(run.Windows, testutil.FocusPairs(run.Usage, p), c, FromModel(src)); err != nil {
		t.Fatal(err)
	}
}
