package estimator

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/nn/ad"
	"repro/internal/nn/layers"
	"repro/internal/testutil"
)

func newTestExpert(cfg Config, inDim int, peers []string) *Expert {
	rng := rand.New(rand.NewSource(1))
	every := make([]int, inDim)
	for k := range every {
		every[k] = k
	}
	return newExpert(app.Pair{Component: "C", Resource: app.CPU}, "C", every, inDim, cfg.Hidden, peers, cfg, rng)
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
	s := newSlab(x, 1, 4, 3, 4)
	e.trajectory(newWorkspace(), s, 0)
	if rows, n, stride := s.Block(8); n != 2 || stride != 8 || rows[6] != 0 || rows[7] != 0 {
		t.Fatalf("last block %v of %d windows, stride %d: want 2 and 8, the last two padding zeros", rows, n, stride)
	}
	h := make([]float64, 3)
	for step := range x {
		if s.State(h, 0, step); h[0] == 0 && h[1] == 0 && h[2] == 0 {
			t.Fatalf("step %d left unwritten", step)
		}
	}
	// Deterministic, on a workspace that has run before too.
	ws := newWorkspace()
	s2 := newSlab(x, 1, 4, 3, 4)
	e.trajectory(ws, newSlab(seriesOf(4, 7), 1, 4, 3, 4), 0)
	e.trajectory(ws, s2, 0)
	for b0 := 0; b0 < len(x); b0 += 4 {
		rows, _, _ := s.Block(b0)
		rows2, _, _ := s2.Block(b0)
		for i := range rows {
			if rows[i] != rows2[i] {
				t.Fatal("trajectory not deterministic")
			}
		}
	}
}

// TestFrozenPassesMatchTape: the off-tape trajectory (Expert.trajectory, the
// one pass the engine, phase B and the oracle's peer states run, each at its
// own block length) must keep the bits of the tape recurrence walk records
// and of Dense.Apply on each masked input — at every block length, over a
// series that crosses the boundaries of every block length but the longest.
func TestFrozenPassesMatchTape(t *testing.T) {
	x := seriesOf(7, 2*layers.BlockWindows+6)
	blockLens := []int{1, 3, 4, layers.BlockWindows, DefaultConfig().ChunkLen, len(x), len(x) + 5}
	cfg := DefaultConfig()
	cfg.Hidden = 5
	e := newTestExpert(cfg, 7, nil)
	for i := range e.Mask.M.Data {
		e.Mask.M.Data[i] = float64(i%3) - 1
	}
	copy(e.Bypass.B.Data, []float64{0.1, -0.2, 0.3})
	ws := newWorkspace()
	for _, blockLen := range blockLens {
		s := newSlab(x, 1, 7, cfg.Hidden, blockLen)
		e.trajectory(ws, s, 0)
		traj := make([]float64, cfg.Hidden)
		e.walk(ws, x, func(i int, h, xt *ad.Value) {
			s.State(traj, 0, i)
			for j := range h.Data {
				if math.Float64bits(traj[j]) != math.Float64bits(h.Data[j]) {
					t.Fatalf("blocks of %d, window %d: state %d = %v, the tape's %v", blockLen, i, j, traj[j], h.Data[j])
				}
			}
			want := e.Bypass.Apply(ws.Eval, xt).Data
			for j, got := range s.Bypass(0)[3*i : 3*i+3] {
				if math.Float64bits(got) != math.Float64bits(want[j]) {
					t.Fatalf("blocks of %d, window %d: bypass %d = %v, Dense.Apply's %v", blockLen, i, j, got, want[j])
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
	peers := &peerStates{Slab: &layers.Slab{Steps: 2}} // wrong step count for 6 inputs
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
	// The stream ends with the last expert's last weight.
	_, stream := toyStream(t)
	binary.LittleEndian.PutUint64(stream[len(stream)-8:], math.Float64bits(math.Inf(1)))
	if _, err := Load(bytes.NewReader(stream)); err == nil || !strings.Contains(err.Error(), "non-finite value +Inf") {
		t.Errorf("a +Inf weight: %v", err)
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
	m, _, err := TrainWarm(run.Windows, usage, cfg, nil, nil)
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
