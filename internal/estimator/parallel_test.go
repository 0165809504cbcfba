package estimator

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/app"
	"repro/internal/testutil"
	"repro/internal/trace"
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
		m, _, err := TrainWarm(run.Windows, usage, cfg, nil, nil)
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

// TestTrainWarmSeedsMatchingExperts: a warm start copies the parameters of
// every expert prev learned over the same paths at the same width — α only
// over the same peers — and counts them; a pair prev never learned, another
// width and another path set of the same size start cold.
func TestTrainWarmSeedsMatchingExperts(t *testing.T) {
	_, _, run := testutil.ToyTelemetry(t, 1, 30, 62)
	p := app.Pair{Component: "Service", Resource: app.CPU}
	q := app.Pair{Component: "DB", Resource: app.CPU}
	r := app.Pair{Component: "DB", Resource: app.Memory}
	cfg := DefaultConfig()
	cfg.Hidden = 3
	cfg.Epochs = 3
	cfg.AttentionEpochs = 1
	cfg.ChunkLen = 24

	src, _, err := TrainWarm(run.Windows, testutil.FocusPairs(run.Usage, p, q), cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if src.Experts[p].Attn.Alpha.Data[0] == 0 {
		t.Fatal("the source's α did not train")
	}

	// Warm training with zero epochs leaves every seeded parameter exactly
	// as the source had it, and every cold one at its initialisation.
	c := cfg
	c.Epochs, c.AttentionEpochs = 0, 0
	check := func(name string, usage map[app.Pair][]float64, wantSeeded int, alphaCopied bool) {
		t.Helper()
		warm, seeded, err := TrainWarm(run.Windows, usage, c, src, nil)
		if err != nil {
			t.Fatal(err)
		}
		if seeded != wantSeeded {
			t.Errorf("%s: seeded %d, want %d", name, seeded, wantSeeded)
		}
		sp, wp := src.Experts[p].Params(), warm.Experts[p].Params()
		for i := range wp {
			copied := wp[i] != warm.Experts[p].Attn.Alpha || alphaCopied
			for j := range wp[i].Data {
				if (wp[i].Data[j] == sp[i].Data[j]) != copied {
					t.Fatalf("%s: param %s[%d] = %v, source %v, copied %v", name, wp[i].Name, j, wp[i].Data[j], sp[i].Data[j], copied)
				}
			}
		}
	}
	check("same peers", testutil.FocusPairs(run.Usage, p, q), 2, true)
	check("other peers", testutil.FocusPairs(run.Usage, p, r), 1, false)

	// A nil source, a source of another width, and one over another path
	// set of the same size seed nothing.
	if _, n, err := TrainWarm(run.Windows, testutil.FocusPairs(run.Usage, p), c, nil, nil); err != nil || n != 0 {
		t.Errorf("nil source: seeded %d, err %v", n, err)
	}
	wide := c
	wide.Hidden = 2 * cfg.Hidden
	if _, n, err := TrainWarm(run.Windows, testutil.FocusPairs(run.Usage, p), wide, src, nil); err != nil || n != 0 {
		t.Errorf("other width: seeded %d, err %v", n, err)
	}
	h := trace.NewHasher("other")
	hashed := make([][]trace.Batch, len(run.Windows))
	for w, batches := range run.Windows {
		for _, b := range batches {
			hashed[w] = append(hashed[w], trace.Batch{Trace: h.AnonymizeTrace(b.Trace), Count: b.Count})
		}
	}
	m, n, err := TrainWarm(hashed, testutil.FocusPairs(run.Usage, p), c, src, nil)
	if err != nil || n != 0 || m.Space.Dim() != src.Space.Dim() {
		t.Errorf("other paths: seeded %d of a %d-wide space (source %d), err %v", n, m.Space.Dim(), src.Space.Dim(), err)
	}
}
