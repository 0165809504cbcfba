package estimator

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/eval"
	"repro/internal/nn/ad"
	"repro/internal/nn/layers"
	"repro/internal/nn/loss"
	"repro/internal/synth"
	"repro/internal/testutil"
)

// testConfig returns a training configuration small enough for unit tests.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Hidden = 12
	cfg.Epochs = 8
	cfg.AttentionEpochs = 2
	cfg.ChunkLen = 24
	return cfg
}

// TestTrainPredictEndToEnd trains on 3 toy days and checks that prediction
// of a 2×-scaled unseen day tracks the ground truth closely — the core
// claim C1 at unit-test scale.
func TestTrainPredictEndToEnd(t *testing.T) {
	cluster, _, run := testutil.ToyTelemetry(t, 3, 40, 1)

	m, _, err := TrainWarm(run.Windows, run.Usage, testConfig(), nil, nil)
	if err != nil {
		t.Fatalf("TrainWarm: %v", err)
	}

	// Query: one unseen day at 2× users. Ground truth: continue the same
	// cluster.
	qprog := testutil.ToyProgram(1, 80, 99)
	qtraffic := qprog.Generate()
	truth, err := cluster.Run(qtraffic)
	if err != nil {
		t.Fatalf("query Run: %v", err)
	}

	// Hypothetical-mode prediction via synthetic traces.
	syn := synth.Learn(run.Windows)
	synthetic, err := syn.Synthesize(qtraffic, 5)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	est, err := m.PredictVectors(m.Space.ExtractSeries(synthetic))
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}

	checks := []struct {
		pair    app.Pair
		maxMAPE float64
	}{
		{app.Pair{Component: "Service", Resource: app.CPU}, 20},
		{app.Pair{Component: "DB", Resource: app.CPU}, 20},
		{app.Pair{Component: "DB", Resource: app.WriteIOps}, 25},
		{app.Pair{Component: "Gateway", Resource: app.CPU}, 20},
		{app.Pair{Component: "DB", Resource: app.DiskUsage}, 15},
	}
	for _, c := range checks {
		e, ok := est[c.pair]
		if !ok {
			t.Fatalf("no estimate for %s", c.pair)
		}
		got := eval.MAPE(e.Exp, truth.Usage[c.pair])
		t.Logf("%s: MAPE=%.2f%%", c.pair, got)
		if got > c.maxMAPE {
			t.Errorf("%s: MAPE %.2f%% exceeds %.2f%%", c.pair, got, c.maxMAPE)
		}
	}
}

// TestIntervalOrdering asserts low ≤ exp ≤ up everywhere.
func TestIntervalOrdering(t *testing.T) {
	_, _, run := testutil.ToyTelemetry(t, 2, 30, 2)
	m, _, err := TrainWarm(run.Windows, run.Usage, testConfig(), nil, nil)
	if err != nil {
		t.Fatalf("TrainWarm: %v", err)
	}
	est, err := m.PredictVectors(m.Space.ExtractSeries(run.Windows))
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	for p, e := range est {
		for i := range e.Exp {
			if e.Low[i] > e.Exp[i]+1e-9 || e.Up[i] < e.Exp[i]-1e-9 {
				t.Fatalf("%s window %d: interval [%g, %g] does not bracket %g", p, i, e.Low[i], e.Up[i], e.Exp[i])
			}
		}
	}
}

// TestIntervalCoverage asserts the δ=0.9 interval covers most in-sample
// measurements for a representative resource.
func TestIntervalCoverage(t *testing.T) {
	_, _, run := testutil.ToyTelemetry(t, 3, 40, 3)
	m, _, err := TrainWarm(run.Windows, run.Usage, testConfig(), nil, nil)
	if err != nil {
		t.Fatalf("TrainWarm: %v", err)
	}
	est, err := m.PredictVectors(m.Space.ExtractSeries(run.Windows))
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	p := app.Pair{Component: "Service", Resource: app.CPU}
	e := est[p]
	truth := run.Usage[p]
	covered := 0
	for i, y := range truth {
		if y >= e.Low[i] && y <= e.Up[i] {
			covered++
		}
	}
	frac := float64(covered) / float64(len(truth))
	t.Logf("coverage: %.2f", frac)
	if frac < 0.6 {
		t.Errorf("interval coverage %.2f too low for δ=0.9", frac)
	}
}

// TestSaveLoadRoundTrip checks that a serialized model predicts identically
// after loading.
func TestSaveLoadRoundTrip(t *testing.T) {
	_, _, run := testutil.ToyTelemetry(t, 2, 30, 4)
	usage := testutil.FocusPairs(run.Usage,
		app.Pair{Component: "Service", Resource: app.CPU},
		app.Pair{Component: "DB", Resource: app.WriteIOps},
		app.Pair{Component: "DB", Resource: app.DiskUsage},
	)
	cfg := testConfig()
	cfg.Epochs = 3
	cfg.AttentionEpochs = 1
	m, _, err := TrainWarm(run.Windows, usage, cfg, nil, nil)
	if err != nil {
		t.Fatalf("TrainWarm: %v", err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	a, err := m.PredictVectors(m.Space.ExtractSeries(run.Windows))
	if err != nil {
		t.Fatalf("Predict(a): %v", err)
	}
	b, err := m2.PredictVectors(m2.Space.ExtractSeries(run.Windows))
	if err != nil {
		t.Fatalf("Predict(b): %v", err)
	}
	for p, ea := range a {
		eb, ok := b[p]
		if !ok {
			t.Fatalf("loaded model lost pair %s", p)
		}
		for i := range ea.Exp {
			if diff := ea.Exp[i] - eb.Exp[i]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("%s window %d: %.12f vs %.12f after round trip", p, i, ea.Exp[i], eb.Exp[i])
			}
		}
	}
}

// TestTrainValidation exercises the error paths of Train.
func TestTrainValidation(t *testing.T) {
	_, _, run := testutil.ToyTelemetry(t, 2, 20, 5)
	cfg := testConfig()

	if _, _, err := TrainWarm(nil, run.Usage, cfg, nil, nil); err == nil {
		t.Error("Train with no windows should fail")
	}
	if _, _, err := TrainWarm(run.Windows, nil, cfg, nil, nil); err == nil {
		t.Error("Train with no usage should fail")
	}
	bad := map[app.Pair][]float64{
		{Component: "Service", Resource: app.CPU}: make([]float64, 3),
	}
	if _, _, err := TrainWarm(run.Windows, bad, cfg, nil, nil); err == nil {
		t.Error("Train with misaligned series should fail")
	}
	badCfg := cfg
	badCfg.Hidden = 0
	if _, _, err := TrainWarm(run.Windows, run.Usage, badCfg, nil, nil); err == nil {
		t.Error("Train with zero hidden should fail")
	}
}

// TestMaskInterpretation checks that the learned API-aware mask attributes
// the DB's write IOps to the /write API, not /read (the Figure 22 claim at
// unit scale).
func TestMaskInterpretation(t *testing.T) {
	_, _, run := testutil.ToyTelemetry(t, 3, 40, 6)
	usage := testutil.FocusPairs(run.Usage,
		app.Pair{Component: "DB", Resource: app.WriteIOps},
	)
	cfg := testConfig()
	cfg.Epochs = 12
	m, _, err := TrainWarm(run.Windows, usage, cfg, nil, nil)
	if err != nil {
		t.Fatalf("TrainWarm: %v", err)
	}
	infl, err := m.APIInfluence(app.Pair{Component: "DB", Resource: app.WriteIOps}, m.Space.ExtractSeries(run.Windows))
	if err != nil {
		t.Fatalf("APIInfluence: %v", err)
	}
	if len(infl) == 0 {
		t.Fatal("no API influence computed")
	}
	write := infl["Gateway:write"]
	read := infl["Gateway:read"]
	t.Logf("influence write=%.3f read=%.3f", write, read)
	if write <= read {
		t.Errorf("write influence (%.3f) should exceed read influence (%.3f) for DB write IOps", write, read)
	}
}

// TestInfluenceSkipsUnreadAPIs: an API none of whose paths an expert reads
// cannot move its estimate, so APIInfluence runs no probe for it, and the
// report is the one every probe run gives, bit for bit.
func TestInfluenceSkipsUnreadAPIs(t *testing.T) {
	run := socialDay(t)
	pairs := []app.Pair{{Component: "PostStorageMongoDB", Resource: app.WriteIOps}, {Component: "UserTimelineService", Resource: app.CPU}}
	cfg := testConfig()
	cfg.Epochs, cfg.AttentionEpochs = 2, 1
	m, _, err := TrainWarm(run.Windows, testutil.FocusPairs(run.Usage, pairs...), cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	series := m.Space.ExtractSeries(run.Windows)
	for _, p := range pairs {
		skipped, err := m.APIInfluence(p, series)
		if err != nil {
			t.Fatal(err)
		}
		probed, err := m.influence(p, series, false)
		if err != nil {
			t.Fatal(err)
		}
		unread := 0
		for root, v := range probed {
			if w, ok := skipped[root]; !ok || math.Float64bits(w) != math.Float64bits(v) {
				t.Fatalf("%s: %s influence %v skipping, %v probing", p, root, w, v)
			}
			if v == 0 {
				unread++
			}
		}
		if len(skipped) != len(probed) || unread == 0 || unread == len(probed) {
			t.Fatalf("%s: %d of %d APIs unread (skipped report has %d): the fixture tests nothing", p, unread, len(probed), len(skipped))
		}
	}
}

// TestPredictRealTraces checks sanity-check mode: predicting on the real
// traces of the training period reproduces the training utilization.
func TestPredictRealTraces(t *testing.T) {
	_, _, run := testutil.ToyTelemetry(t, 3, 40, 8)
	p := app.Pair{Component: "DB", Resource: app.CPU}
	usage := testutil.FocusPairs(run.Usage, p)
	m, _, err := TrainWarm(run.Windows, usage, testConfig(), nil, nil)
	if err != nil {
		t.Fatalf("TrainWarm: %v", err)
	}
	est, err := m.PredictVectors(m.Space.ExtractSeries(run.Windows))
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	mape := eval.MAPE(est[p].Exp, usage[p])
	t.Logf("in-sample MAPE: %.2f%%", mape)
	if mape > 15 {
		t.Errorf("in-sample MAPE %.2f%% too high", mape)
	}
}

// TestVariableDurationQueries exercises the paper's §4.2 claim that queries
// may have any duration: the same trained model estimates a 30-minute, a
// 1-day, and a 3-day query without retraining.
func TestVariableDurationQueries(t *testing.T) {
	cluster, _, run := testutil.ToyTelemetry(t, 3, 40, 9)
	p := app.Pair{Component: "Service", Resource: app.CPU}
	m, _, err := TrainWarm(run.Windows, testutil.FocusPairs(run.Usage, p), testConfig(), nil, nil)
	if err != nil {
		t.Fatalf("TrainWarm: %v", err)
	}
	for _, days := range []float64{0.25, 1, 3} {
		n := int(days * float64(testutil.ToyDay))
		prog := testutil.ToyProgram(3, 40, 100+int64(days*10))
		traffic := prog.Generate().Slice(0, n)
		truth, err := cluster.Run(traffic)
		if err != nil {
			t.Fatal(err)
		}
		est, err := m.PredictVectors(m.Space.ExtractSeries(truth.Windows))
		if err != nil {
			t.Fatalf("Predict(%v days): %v", days, err)
		}
		if len(est[p].Exp) != n {
			t.Fatalf("%v days: estimate length %d, want %d", days, len(est[p].Exp), n)
		}
		mape := eval.MAPE(est[p].Exp, truth.Usage[p])
		t.Logf("%v-day query: MAPE=%.2f%%", days, mape)
		if mape > 20 {
			t.Errorf("%v-day query MAPE %.2f%% too high", days, mape)
		}
	}
}

// TestPeerStatesReadSlabInTrainingOrder pins what the attention reads: expert
// i's peers are every other expert in training order — there is no list to go
// stale, the op skips its own row of the slab — and peer k's state at step t
// is the slab row the block handed to WeightedSumConst holds.
func TestPeerStatesReadSlabInTrainingOrder(t *testing.T) {
	// Three experts a, b, c × two steps × one hidden unit, one block: each
	// expert's row holds its two states and two padding lanes.
	slab := new(layers.Slab)
	slab.Reset(3, 2, 0, 1, 2)
	rows, _, _ := slab.Block(0)
	copy(rows, []float64{1, 10, 0, 0, 2, 20, 0, 0, 3, 30, 0, 0})
	for _, tc := range []struct {
		self int
		want [][]float64 // [step][peer]
	}{
		{0, [][]float64{{2, 3}, {20, 30}}},
		{1, [][]float64{{1, 3}, {10, 30}}},
		{2, [][]float64{{1, 2}, {10, 20}}},
	} {
		ps := &peerStates{slab, tc.self}
		own := make([]float64, 1)
		if ps.State(own, ps.self, 1); own[0] != rows[tc.self*4+1] {
			t.Fatalf("expert %d: own state at step 1 = %v", tc.self, own[0])
		}
		attn := &layers.Attention{Alpha: ad.NewParam("x.alpha", 2, 1), Peers: []string{"p", "q"}}
		for step, want := range tc.want {
			for k := range want {
				// A one-hot α picks peer k's state out of the context.
				attn.Alpha.Data[0], attn.Alpha.Data[1] = 0, 0
				attn.Alpha.Data[k] = 1
				if got := ps.attend(ad.NewEvalTape(), attn, 0).Data[step]; got != want[k] {
					t.Fatalf("expert %d step %d peer %d = %v, want %v", tc.self, step, k, got, want[k])
				}
			}
		}
	}
}

// TestTrainRefusesNonFiniteLoss: a NaN or ±Inf utilization sample reaches the
// expert's loss (the target scale ignores it — NaN loses every comparison —
// and Inf scales to Inf/Inf), and Train must fail naming the pair instead of
// returning a model whose weights are NaN. Phase B has the same guard: a
// non-finite peer state stops the head fit.
func TestTrainRefusesNonFiniteLoss(t *testing.T) {
	_, _, run := testutil.ToyTelemetry(t, 1, 30, 3)
	good := app.Pair{Component: "Service", Resource: app.CPU}
	bad := app.Pair{Component: "DB", Resource: app.CPU}
	cfg := testConfig()
	cfg.Epochs = 2
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		usage := testutil.FocusPairs(run.Usage, good, bad)
		series := append([]float64(nil), usage[bad]...)
		series[7] = v
		usage[bad] = series
		m, _, err := TrainWarm(run.Windows, usage, cfg, nil, nil)
		if err == nil || !strings.Contains(err.Error(), bad.String()) || !strings.Contains(err.Error(), "non-finite") {
			t.Fatalf("TrainWarm with a %v sample: model %v, err %v; want a non-finite loss naming %s", v, m != nil, err, bad)
		}
	}

	m, x, targets, err := buildModel(run.Windows, testutil.FocusPairs(run.Usage, good, bad), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	hidden, err := m.allHiddenStates(x, cfg.ChunkLen)
	if err != nil {
		t.Fatal(err)
	}
	rows, _, stride := hidden.Block(0)
	rows[stride+3] = math.NaN() // expert 1 is expert 0's only peer: its first unit at window 3
	q := loss.Quantiles(cfg.Delta)
	before := append([]float64(nil), m.Experts[m.Pairs[0]].Head.W.Data...)
	cfg.AttentionEpochs, cfg.Seed = 1, 1-1000 // expert 0's chunk order from seed 1
	err = m.trainHeads(newWorkspace(), 0, 1, hidden, targets, cfg, q[:])
	if err == nil || !strings.Contains(err.Error(), m.Pairs[0].String()) {
		t.Fatalf("phase B over a NaN peer state: err = %v", err)
	}
	for i, w := range m.Experts[m.Pairs[0]].Head.W.Data {
		if w != before[i] {
			t.Fatalf("head weight %d moved (%v → %v) on a refused chunk", i, before[i], w)
		}
	}
}

// TestLearnAllocatesPerExpertNotPerChunk is a learn's memory wall: a worker's
// workspace keeps its tapes, its Adam and its GRU step operands — a chunk's
// input products, U's panels — from expert to expert, so a second expert's
// training, frozen trajectory and forward on a warm workspace allocate
// nothing hidden²-sized (one 64×64 matrix is 32 KB; the panels are three) or
// chunk-sized (a chunk's input products are 37 KB here), per expert or per
// chunk: what is left is the expert's chunk order, its seed's generator and a
// few hidden-sized vectors.
func TestLearnAllocatesPerExpertNotPerChunk(t *testing.T) {
	run := socialDay(t)
	cfg := DefaultConfig()
	cfg.Hidden, cfg.ChunkLen = 64, 24
	m, x, targets, err := buildModel(run.Windows, run.Usage, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := loss.Quantiles(cfg.Delta)
	ws := newWorkspace()
	slab := newSlab(x, 1, m.Space.Dim(), cfg.Hidden, cfg.ChunkLen)
	learn := func(p app.Pair) {
		e := m.Experts[p]
		if err := trainExpert(ws, e, x, targets[p], cfg, 2, q[:], 1); err != nil {
			t.Fatal(err)
		}
		e.trajectory(ws, slab, 0)
		if _, err := e.forward(ws, x, nil); err != nil {
			t.Fatal(err)
		}
	}
	learn(m.Pairs[0])
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	learn(m.Pairs[1])
	runtime.ReadMemStats(&after)
	grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(8*cfg.Hidden*cfg.Hidden)
	t.Logf("a warm expert (%d chunks of %d windows, 2 epochs) allocated %d bytes", (len(x)+cfg.ChunkLen-1)/cfg.ChunkLen, cfg.ChunkLen, grew)
	if grew > bound {
		t.Fatalf("a warm expert allocated %d bytes, more than one %d×%d matrix (%d)", grew, cfg.Hidden, cfg.Hidden, bound)
	}
}
