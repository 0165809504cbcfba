package estimator

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/app"
	"repro/internal/testutil"
)

func newTestExpert(cfg Config, inDim int, peers []string) *Expert {
	rng := rand.New(rand.NewSource(1))
	return newExpert(app.Pair{Component: "C", Resource: app.CPU}, inDim, cfg.Hidden, peers, cfg, rng)
}

func seriesOf(dim, steps int) [][]float64 {
	x := make([][]float64, steps)
	for t := range x {
		x[t] = make([]float64, dim)
		for j := range x[t] {
			x[t][j] = float64((t+j)%5) / 5
		}
	}
	return x
}

func TestExpertHiddenStatesShape(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hidden = 3
	e := newTestExpert(cfg, 4, nil)
	x := seriesOf(4, 10)
	// The trajectory is len(x)·Hidden floats, step-major: every step's row is
	// written, and nothing past the last one.
	hs := make([]float64, len(x)*3+1)
	hs[len(hs)-1] = 42
	e.hiddenInto(newWorkspace(), x, hs[:len(x)*3])
	if hs[len(hs)-1] != 42 {
		t.Fatal("hiddenInto wrote past len(x)·Hidden floats")
	}
	for step := range x {
		row := hs[step*3 : (step+1)*3]
		if row[0] == 0 && row[1] == 0 && row[2] == 0 {
			t.Fatalf("step %d left unwritten", step)
		}
	}
	// Deterministic, on a workspace that has run before too.
	ws := newWorkspace()
	hs2 := make([]float64, len(x)*3)
	e.hiddenInto(ws, seriesOf(4, 7), hs2[:7*3])
	e.hiddenInto(ws, x, hs2)
	for i := range hs2 {
		if hs[i] != hs2[i] {
			t.Fatal("hiddenInto not deterministic")
		}
	}
}

func TestExpertForwardZeroAttentionFallback(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hidden = 3
	e := newTestExpert(cfg, 4, []string{"peer"})
	// Without peer states the attention context is zero.
	out, err := e.forward(newWorkspace(), seriesOf(4, 6), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 6 {
		t.Fatalf("outputs = %d", len(out))
	}
}

func TestExpertForwardPeerMismatch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hidden = 3
	e := newTestExpert(cfg, 4, []string{"peer"})
	peers := &peerStates{hiddenSlab: &hiddenSlab{steps: 2}} // wrong step count for 6 inputs
	if _, err := e.forward(newWorkspace(), seriesOf(4, 6), peers); err == nil {
		t.Fatal("mismatched peer states must fail")
	}
}

func TestExpertMaskGatesInput(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hidden = 2
	e := newTestExpert(cfg, 3, nil)
	// Drive the mask hard closed: outputs must stop depending on the
	// input scale through the bypass.
	for i := range e.Mask.M.Data {
		e.Mask.M.Data[i] = -50 // σ ≈ 0
	}
	a, err := e.forward(newWorkspace(), [][]float64{{1, 1, 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.forward(newWorkspace(), [][]float64{{100, 100, 100}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if diff := a[0][0] - b[0][0]; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("closed mask must block input influence: %v vs %v", a[0][0], b[0][0])
	}
}

func TestExpertNumParams(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hidden = 4
	e := newTestExpert(cfg, 10, []string{"a", "b"})
	// mask 10 + GRU 3·(4·10+4·4+4) + attention 2 + head (3·8+3) + bypass (3·10+3).
	want := 10 + 3*(40+16+4) + 2 + 27 + 33
	if got := e.NumParams(); got != want {
		t.Errorf("NumParams = %d, want %d", got, want)
	}
}

func TestLoadRejectsCorruptSnapshots(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("garbage must fail to load")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream must fail to load")
	}
}

func TestTargetScaleDeltaRoundTrip(t *testing.T) {
	p := app.Pair{Component: "DB", Resource: app.DiskUsage}
	series := []float64{100, 104, 110, 110, 123}
	ts := fitTargetScale(p, series)
	if ts.Kind != kindDelta {
		t.Fatal("disk usage must be delta-kind")
	}
	if ts.Base != 123 {
		t.Errorf("Base = %v, want last observation", ts.Base)
	}
	// Max delta is 13 → scale 13.
	if ts.Scale != 13 {
		t.Errorf("Scale = %v, want 13", ts.Scale)
	}
	scaled := ts.scaled(series)
	if scaled[0] != 0 || scaled[1] != 4.0/13 {
		t.Errorf("scaled = %v", scaled)
	}
}

func TestTargetScaleLevel(t *testing.T) {
	p := app.Pair{Component: "C", Resource: app.CPU}
	ts := fitTargetScale(p, []float64{2, 8, 4})
	if ts.Kind != kindLevel || ts.Scale != 8 {
		t.Errorf("level scale = %+v", ts)
	}
	// All-zero series must not divide by zero.
	ts0 := fitTargetScale(p, []float64{0, 0})
	if ts0.Scale != 1 {
		t.Errorf("zero-series scale = %v, want 1", ts0.Scale)
	}
}

func TestOrderedRepairsCrossing(t *testing.T) {
	e, l, u := ordered([3]float64{5, 7, 2})
	if l > e || u < e {
		t.Errorf("ordered = (%v, %v, %v)", e, l, u)
	}
	if e != 5 || l != 5 || u != 5 {
		t.Errorf("crossing repair = (%v, %v, %v), want all clamped to 5", e, l, u)
	}
}

func TestModelSummaryAndReports(t *testing.T) {
	_, _, run := testutil.ToyTelemetry(t, 2, 30, 12)
	usage := testutil.FocusPairs(run.Usage,
		app.Pair{Component: "Service", Resource: app.CPU},
		app.Pair{Component: "DB", Resource: app.DiskUsage},
	)
	cfg := testConfig()
	cfg.Epochs = 3
	cfg.AttentionEpochs = 1
	m, err := Train(run.Windows, usage, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	m.Summary(&buf)
	out := buf.String()
	for _, want := range []string{"2 experts", "Service/cpu", "DB/disk_usage", "growth", "mask"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("Summary missing %q:\n%s", want, out)
		}
	}
	top := m.TopFeatures(app.Pair{Component: "Service", Resource: app.CPU}, 3)
	if len(top) != 3 {
		t.Fatalf("TopFeatures = %d entries", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Weight > top[i-1].Weight {
			t.Fatal("TopFeatures not sorted by weight")
		}
	}
}
