package estimator

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/app"
	"repro/internal/nn/ad"
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
	// The trajectory is every window's state, in rows of blocks of four
	// windows (4, 4, 2): every window is written, and no padding lane.
	s := &peerStates{newHiddenSlab(1, len(x), 3, 4), 0}
	e.hiddenInto(newWorkspace(), x, s)
	if len(s.data) != 12+12+8 || s.data[len(s.data)-2] != 0 || s.data[len(s.data)-1] != 0 {
		t.Fatalf("slab of %d floats %v: want 32, the last two padding zeros", len(s.data), s.data)
	}
	h := make([]float64, 3)
	for step := range x {
		if s.state(h, 0, step); h[0] == 0 && h[1] == 0 && h[2] == 0 {
			t.Fatalf("step %d left unwritten", step)
		}
	}
	// Deterministic, on a workspace that has run before too.
	ws := newWorkspace()
	s2 := &peerStates{newHiddenSlab(1, len(x), 3, 4), 0}
	e.hiddenInto(ws, seriesOf(4, 7), &peerStates{newHiddenSlab(1, 7, 3, 4), 0})
	e.hiddenInto(ws, x, s2)
	for i := range s2.data {
		if s.data[i] != s2.data[i] {
			t.Fatal("hiddenInto not deterministic")
		}
	}
}

// TestFrozenPassesMatchTape: phase B's frozen inputs are formed without the
// tape (hiddenInto) — the trajectory on the block's operands, the bypass for
// a block of windows at once — and must keep the bits of the tape recurrence
// walk records and of Dense.Apply on each masked input, with the mask on and
// off, over a series that crosses a block boundary.
func TestFrozenPassesMatchTape(t *testing.T) {
	for _, useMask := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.Hidden, cfg.UseMask = 5, useMask
		e := newTestExpert(cfg, 7, nil)
		for i := range e.Mask.M.Data {
			e.Mask.M.Data[i] = float64(i%3) - 1
		}
		copy(e.Bypass.B.Data, []float64{0.1, -0.2, 0.3})
		x := seriesOf(7, evalBlock+6)
		ws := newWorkspace()
		s := &peerStates{newHiddenSlab(1, len(x), cfg.Hidden, evalBlock), 0}
		e.hiddenInto(ws, x, s)
		bypass, traj := s.bypass, make([]float64, cfg.Hidden)
		e.walk(ws, x, func(i int, h, xt *ad.Value) {
			want := e.Bypass.Apply(ws.Eval, xt).Data
			s.state(traj, 0, i)
			for j := range h.Data {
				if math.Float64bits(traj[j]) != math.Float64bits(h.Data[j]) {
					t.Fatalf("mask %v window %d: state %d = %v, the tape's %v", useMask, i, j, traj[j], h.Data[j])
				}
			}
			for j := range want {
				if math.Float64bits(bypass[3*i+j]) != math.Float64bits(want[j]) {
					t.Fatalf("mask %v window %d: bypass %d = %v, Dense.Apply's %v", useMask, i, j, bypass[3*i+j], want[j])
				}
			}
		})
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
	ts := FitTargetScale(p, series)
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
	scaled := ts.Scaled(series)
	if scaled[0] != 0 || scaled[1] != 4.0/13 {
		t.Errorf("scaled = %v", scaled)
	}
}

func TestTargetScaleLevel(t *testing.T) {
	p := app.Pair{Component: "C", Resource: app.CPU}
	ts := FitTargetScale(p, []float64{2, 8, 4})
	if ts.Kind != kindLevel || ts.Scale != 8 {
		t.Errorf("level scale = %+v", ts)
	}
	// All-zero series must not divide by zero.
	ts0 := FitTargetScale(p, []float64{0, 0})
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
}
