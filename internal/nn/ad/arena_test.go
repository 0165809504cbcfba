package ad

import (
	"math"
	"math/rand"
	"testing"
)

// newTestGRU builds a small randomly initialised GRU parameter bundle with
// gradients bound, as a trainer would hold it.
func newTestGRU(in, hid int, rng *rand.Rand) *GRUParams {
	g := &GRUParams{
		Wz: NewParamInit("Wz", hid, in, rng),
		Uz: NewParamInit("Uz", hid, hid, rng),
		Bz: NewParamInit("bz", hid, 1, rng),
		Wk: NewParamInit("Wk", hid, in, rng),
		Uk: NewParamInit("Uk", hid, hid, rng),
		Bk: NewParamInit("bk", hid, 1, rng),
		Wh: NewParamInit("Wh", hid, in, rng),
		Uh: NewParamInit("Uh", hid, hid, rng),
		Bh: NewParamInit("bh", hid, 1, rng),
	}
	BindGrads(nil, []*Param{g.Wz, g.Uz, g.Bz, g.Wk, g.Uk, g.Bk, g.Wh, g.Uh, g.Bh})
	return g
}

// stepPanels are GRUStep's; no test steps two tapes at once.
var stepPanels Panels

// GRUStep records g's step from x and hPrev on t as a trajectory of one
// window: its input products formed here on the Go loops, in the tape's
// scratch, and its panels packed by the step itself — the operands the
// shipped trajectories form a block of windows at a time for GRUStepAt.
func (t *Tape) GRUStep(g *GRUParams, x, hPrev *Value) *Value {
	hid := g.Wz.Rows
	wx := t.scratchBuf(3 * hid)
	for i, w := range [...]*Param{g.Wz, g.Wk, g.Wh} {
		matVec(wx[i*hid:(i+1)*hid], w.Data, x.Data)
	}
	stepPanels.Reset(hid)
	return t.GRUStepAt(g, x, hPrev, wx, 1, 0, &stepPanels)
}

func TestGRUStepGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in, hid := 3, 4
	g := newTestGRU(in, hid, rng)
	x := NewParamInit("x", in, 1, rng)
	h0 := NewParamInit("h0", hid, 1, rng)
	tgt := make([]float64, hid)
	for i := range tgt {
		tgt[i] = 0.1 * float64(i+1)
	}
	params := []*Param{g.Wz, g.Uz, g.Bz, g.Wk, g.Uk, g.Bk, g.Wh, g.Uh, g.Bh, x, h0}
	checkGrads(t, params, func(tp *Tape) *Value {
		// Two chained steps so the loss reaches hPrev both directly (via
		// the blend) and through the reset gate of the next step.
		h := tp.GRUStep(g, tp.Use(x), tp.Use(h0))
		h = tp.GRUStep(g, tp.Use(x), h)
		return tp.SquaredError(h, tgt)
	})
}

// TestPooledTapeMatchesFresh drives the same training-shaped computation
// through (a) a fresh tape per round and (b) one pooled tape recycled with
// Reset, and requires bitwise-identical outputs and parameter gradients.
// This is the contract that lets the estimator reuse one tape per expert.
func TestPooledTapeMatchesFresh(t *testing.T) {
	const rounds, in, hid, steps = 8, 5, 6, 7
	rng := rand.New(rand.NewSource(23))
	g := newTestGRU(in, hid, rng)
	xs := make([][]float64, rounds*steps)
	for i := range xs {
		row := make([]float64, in)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		xs[i] = row
	}
	tgt := make([]float64, hid)
	for i := range tgt {
		tgt[i] = rng.NormFloat64()
	}
	params := []*Param{g.Wz, g.Uz, g.Bz, g.Wk, g.Uk, g.Bk, g.Wh, g.Uh, g.Bh}

	// run executes `rounds` forward+backward rounds, returning the output
	// bits and accumulated gradient bits after every round. next() supplies
	// the tape for each round.
	run := func(next func() *Tape) (outs [][]uint64, grads [][]uint64) {
		for _, p := range params {
			p.ZeroGrad()
		}
		zeroH := make([]float64, hid)
		losses := make([]*Value, 0, steps)
		for r := 0; r < rounds; r++ {
			tape := next()
			h := tape.Const(zeroH)
			losses = losses[:0]
			for s := 0; s < steps; s++ {
				h = tape.GRUStep(g, tape.Const(xs[r*steps+s]), h)
				losses = append(losses, tape.SquaredError(h, tgt))
			}
			tape.Backward(tape.ScaleConst(tape.SumScalars(losses...), 1.0/steps))
			ob := make([]uint64, hid)
			for i, v := range h.Data {
				ob[i] = math.Float64bits(v)
			}
			outs = append(outs, ob)
			var gb []uint64
			for _, p := range params {
				for _, v := range p.Grad {
					gb = append(gb, math.Float64bits(v))
				}
			}
			grads = append(grads, gb)
		}
		return outs, grads
	}

	freshOuts, freshGrads := run(NewTape)
	pooled := NewTape()
	pooledOuts, pooledGrads := run(func() *Tape {
		pooled.Reset()
		return pooled
	})

	for r := 0; r < rounds; r++ {
		for i := range freshOuts[r] {
			if freshOuts[r][i] != pooledOuts[r][i] {
				t.Fatalf("round %d output[%d]: fresh %#x vs pooled %#x", r, i, freshOuts[r][i], pooledOuts[r][i])
			}
		}
		for i := range freshGrads[r] {
			if freshGrads[r][i] != pooledGrads[r][i] {
				t.Fatalf("round %d grad[%d]: fresh %#x vs pooled %#x", r, i, freshGrads[r][i], pooledGrads[r][i])
			}
		}
	}
}

// TestResetNoStaleState checks that recycled arena memory comes back zeroed:
// gradients and data left behind by a completed Backward must not leak into
// nodes allocated after Reset.
func TestResetNoStaleState(t *testing.T) {
	tape := NewTape()
	a := tape.Const([]float64{1, 2, 3})
	b := tape.Sigmoid(a)
	loss := tape.SquaredError(b, []float64{0, 0, 0})
	tape.Backward(loss)
	nonzero := false
	for _, gv := range b.Grad {
		if gv != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("sanity: expected nonzero grads before Reset")
	}

	tape.Reset()
	a2 := tape.Const([]float64{4, 5, 6})
	b2 := tape.Tanh(a2)
	for i, v := range a2.Data {
		if want := []float64{4, 5, 6}[i]; v != want {
			t.Errorf("recycled Data[%d] = %v, want %v", i, v, want)
		}
	}
	for i, gv := range a2.Grad {
		if gv != 0 {
			t.Errorf("recycled a2.Grad[%d] = %v, want 0", i, gv)
		}
	}
	for i, gv := range b2.Grad {
		if gv != 0 {
			t.Errorf("recycled b2.Grad[%d] = %v, want 0", i, gv)
		}
	}
	if tape.NumNodes() != 2 {
		t.Errorf("NumNodes after Reset+2 ops = %d, want 2", tape.NumNodes())
	}
}

// TestEvalTapeMatchesTrainForward checks that a gradient-free tape computes
// bitwise-identical forward values to a training tape.
func TestEvalTapeMatchesTrainForward(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	in, hid := 4, 5
	g := newTestGRU(in, hid, rng)
	x := make([]float64, in)
	for i := range x {
		x[i] = rng.NormFloat64()
	}

	forward := func(tape *Tape) []uint64 {
		h := tape.Const(make([]float64, hid))
		for s := 0; s < 3; s++ {
			h = tape.GRUStep(g, tape.Const(x), h)
		}
		y := tape.Concat(tape.Sigmoid(h), tape.Tanh(h))
		out := make([]uint64, len(y.Data))
		for i, v := range y.Data {
			out[i] = math.Float64bits(v)
		}
		return out
	}

	train := forward(NewTape())
	eval := forward(NewEvalTape())
	for i := range train {
		if train[i] != eval[i] {
			t.Errorf("forward[%d]: train %#x vs eval %#x", i, train[i], eval[i])
		}
	}
}

func TestEvalTapeHasNoGrad(t *testing.T) {
	tape := NewEvalTape()
	v := tape.Sigmoid(tape.Const([]float64{0.5}))
	if v.Grad != nil {
		t.Errorf("eval-tape value has Grad of len %d, want nil", len(v.Grad))
	}
}

func TestEvalTapeBackwardPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Backward on an eval tape should panic")
		}
	}()
	tape := NewEvalTape()
	tape.Backward(tape.Const([]float64{1}))
}

// TestResetSteadyStateAllocs asserts the tentpole property: once the arena
// is warm, a full forward+backward round on a pooled tape performs zero
// heap allocations.
func TestResetSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	in, hid := 6, 8
	g := newTestGRU(in, hid, rng)
	x := make([]float64, in)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	h0 := make([]float64, hid)
	tgt := make([]float64, hid)
	tape := NewTape()
	losses := make([]*Value, 0, 4)
	round := func() {
		tape.Reset()
		h := tape.Const(h0)
		losses = losses[:0]
		for s := 0; s < 4; s++ {
			h = tape.GRUStep(g, tape.Const(x), h)
			losses = append(losses, tape.SquaredError(h, tgt))
		}
		tape.Backward(tape.ScaleConst(tape.SumScalars(losses...), 0.25))
	}
	round() // warm the arena and scratch buffers
	if n := testing.AllocsPerRun(50, round); n > 0 {
		t.Errorf("steady-state pooled round allocates %.1f times/op, want 0", n)
	}
}
