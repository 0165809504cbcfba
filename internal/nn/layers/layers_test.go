package layers

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn/ad"
	"repro/internal/nn/opt"
)

func TestDenseShapesAndParams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense("d", 4, 3, rng)
	if got := len(d.Params()); got != 2 {
		t.Fatalf("Params = %d, want 2", got)
	}
	tape := ad.NewEvalTape()
	y := d.Apply(tape, tape.Const([]float64{1, 2, 3, 4}))
	if y.Len() != 3 {
		t.Fatalf("output len = %d, want 3", y.Len())
	}
}

func TestDenseZeroIsZero(t *testing.T) {
	d := &Dense{In: 3, Out: 2, W: ad.NewParam("d.W", 2, 3), B: ad.NewParam("d.b", 2, 1)}
	tape := ad.NewEvalTape()
	y := d.Apply(tape, tape.Const([]float64{1, 2, 3}))
	for _, v := range y.Data {
		if v != 0 {
			t.Fatal("zero-initialised dense layer must output zero")
		}
	}
}

func TestAPIMaskInitialGate(t *testing.T) {
	m := &APIMask{M: ad.NewParam("m.mask", 4, 1)}
	tape := ad.NewEvalTape()
	x := tape.Const([]float64{2, 4, 6, 8})
	y := m.Apply(tape, x)
	for i, v := range y.Data {
		if math.Abs(v-x.Data[i]*0.5) > 1e-12 {
			t.Fatalf("initial mask must gate at σ(0)=0.5: got %v", y.Data)
		}
	}
	ws := m.Weights()
	for _, w := range ws {
		if w != 0.5 {
			t.Fatalf("Weights = %v, want all 0.5", ws)
		}
	}
}

func TestGRUStepShapeAndBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := NewGRUCell("g", 3, 5, rng)
	if got := len(g.Params()); got != 9 {
		t.Fatalf("GRU params = %d, want 9", got)
	}
	tape := ad.NewEvalTape()
	h := tape.Const(make([]float64, 5))
	for i := 0; i < 10; i++ {
		h = g.Step(tape, tape.Const([]float64{1, -0.5, 2}), h)
	}
	if h.Len() != 5 {
		t.Fatalf("hidden len = %d, want 5", h.Len())
	}
	for _, v := range h.Data {
		// h is a convex combination of tanh outputs, so |h| ≤ 1.
		if v < -1 || v > 1 {
			t.Fatalf("hidden state out of [-1, 1]: %v", v)
		}
	}
}

// TestGRUZeroInputFixedPoint: with zero weights, the candidate is tanh(0)=0
// and the gates are 0.5, so the hidden state halves each step.
func TestGRUZeroWeightsDecay(t *testing.T) {
	var ps []*ad.Param
	for i := 0; i < 3; i++ {
		ps = append(ps, ad.NewParam("W", 3, 2), ad.NewParam("U", 3, 3), ad.NewParam("b", 3, 1))
	}
	g := GRUCellOf(2, 3, ps)
	tape := ad.NewEvalTape()
	h := tape.Const([]float64{1, 1, 1})
	h = g.Step(tape, tape.Const([]float64{5, 5}), h)
	for _, v := range h.Data {
		if math.Abs(v-0.5) > 1e-12 {
			t.Fatalf("expected h = 0.5 after one zero-weight step, got %v", h.Data)
		}
	}
}

// TestGRULearnsMovingAverage trains a 1-unit GRU + dense head to track an
// exponentially smoothed input, a sanity check that gradients flow through
// the recurrence.
func TestGRULearnsMovingAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := NewGRUCell("g", 1, 4, rng)
	head := NewDense("head", 4, 1, rng)
	params := append(g.Params(), head.Params()...)
	ad.BindGrads(nil, params)
	optimizer := opt.NewAdam(params, 0.02)
	optimizer.ClipNorm = 5

	// Data: x_t random walk in [0,1]; y_t = EMA(x, 0.7).
	const T = 120
	xs := make([]float64, T)
	ys := make([]float64, T)
	ema := 0.5
	for i := range xs {
		xs[i] = rng.Float64()
		ema = 0.7*ema + 0.3*xs[i]
		ys[i] = ema
	}
	var last float64
	for epoch := 0; epoch < 150; epoch++ {
		tape := ad.NewTape()
		h := tape.Const(make([]float64, 4))
		var losses []*ad.Value
		for i := 0; i < T; i++ {
			h = g.Step(tape, tape.Const([]float64{xs[i]}), h)
			y := head.Apply(tape, h)
			losses = append(losses, tape.SquaredError(y, []float64{ys[i]}))
		}
		total := tape.ScaleConst(tape.SumScalars(losses...), 1.0/T)
		tape.Backward(total)
		last = total.Data[0]
		optimizer.Step()
	}
	if last > 0.002 {
		t.Errorf("GRU failed to fit EMA: final MSE %v", last)
	}
}

func TestAttentionApply(t *testing.T) {
	a := &Attention{Alpha: ad.NewParam("a.alpha", 3, 1), Peers: []string{"p0", "p1", "p2"}}
	a.Alpha.Data[0] = 0.1
	a.Alpha.Data[1] = -2
	a.Alpha.Data[2] = 0.5
	tape := ad.NewEvalTape()
	// Expert 3's three peers, then its own state, in rows padded to four lanes.
	v := a.Apply(tape, 3, []float64{1, 0, 0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 7, 7, 0, 0}, 4, 2, 1)
	want := []float64{0.1 + 0.5, -2 + 0.5}
	for i := range want {
		if math.Abs(v.Data[i]-want[i]) > 1e-12 {
			t.Fatalf("attention = %v, want %v", v.Data, want)
		}
	}
}

func TestFlatParamsLength(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := NewGRUCell("g", 3, 2, rng)
	// 3 gates × (2×3 W + 2×2 U + 2 b) = 3 × 12 = 36.
	if got := len(g.FlatParams()); got != 36 {
		t.Fatalf("FlatParams len = %d, want 36", got)
	}
}

// TestTrajectoryZeroesReusedPadding: a Slab Reset for a shorter series keeps
// the longer series' states in its buffer, and Trajectory must leave every
// padding lane of the rows it writes +0, as the Slab layout promises. Hidden
// 5 over a last block of 3 windows pads each row from 15 floats to 16, over
// memory the first series filled with states.
func TestTrajectoryZeroesReusedPadding(t *testing.T) {
	const in, hidden, experts, blockLen = 3, 5, 2, 8
	rng := rand.New(rand.NewSource(7))
	cells := []*GRUCell{NewGRUCell("a", in, hidden, rng), NewGRUCell("b", in, hidden, rng)}
	var s Slab
	var b GRUBlock
	for _, steps := range []int{20, 11} {
		s.Reset(experts, steps, in, hidden, blockLen)
		for w := 0; w < steps; w++ {
			col, stride := s.Window(w)
			for k := 0; k < in; k++ {
				col[k*stride] = rng.NormFloat64()
			}
		}
		for i, g := range cells {
			b.Trajectory(&s, i, g, nil, nil)
		}
		for b0 := 0; b0 < steps; b0 += blockLen {
			rows, n, stride := s.Block(b0)
			for i := range cells {
				for l, v := range rows[i*stride:][hidden*n : stride] {
					if v != 0 || math.Signbit(v) {
						t.Fatalf("%d windows: expert %d, block at %d: padding lane %d = %v, want +0", steps, i, b0, hidden*n+l, v)
					}
				}
			}
		}
	}
}
