package ad

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

// numericGrad estimates dLoss/dParam[i] by central differences.
func numericGrad(p *Param, i int, loss func() float64) float64 {
	const h = 1e-6
	orig := p.Data[i]
	p.Data[i] = orig + h
	up := loss()
	p.Data[i] = orig - h
	down := loss()
	p.Data[i] = orig
	return (up - down) / (2 * h)
}

// checkGrads compares analytic gradients against numeric ones for every
// element of every parameter.
func checkGrads(t *testing.T, params []*Param, build func(tp *Tape) *Value) {
	t.Helper()
	BindGrads(nil, params)
	tape := NewTape()
	root := build(tape)
	tape.Backward(root)
	loss := func() float64 {
		tp := NewTape()
		return build(tp).Data[0]
	}
	for _, p := range params {
		for i := range p.Data {
			want := numericGrad(p, i, loss)
			got := p.Grad[i]
			if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
				t.Errorf("param %s[%d]: analytic %.8f vs numeric %.8f", p.Name, i, got, want)
			}
		}
		clear(p.Grad)
	}
}

func TestMatVecGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := NewParamInit("W", 3, 4, rng)
	x := NewParamInit("x", 4, 1, rng)
	checkGrads(t, []*Param{w, x}, func(tp *Tape) *Value {
		y := tp.MatVec(tp.Use(w), tp.Use(x))
		return tp.SquaredError(y, []float64{0.1, -0.2, 0.3})
	})
}

func TestElementwiseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewParamInit("a", 5, 1, rng)
	b := NewParamInit("b", 5, 1, rng)
	checkGrads(t, []*Param{a, b}, func(tp *Tape) *Value {
		av, bv := tp.Use(a), tp.Use(b)
		sum := tp.Add(av, bv)
		prod := tp.Mul(sum, tp.OneMinus(bv))
		sub := tp.Add(prod, tp.ScaleConst(av, -1))
		scaled := tp.ScaleConst(sub, 0.7)
		return tp.SquaredError(scaled, []float64{0.1, 0.2, 0.3, -0.1, 0})
	})
}

func TestActivationGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewParamInit("a", 6, 1, rng)
	checkGrads(t, []*Param{a}, func(tp *Tape) *Value {
		v := tp.Use(a)
		s := tp.Sigmoid(v)
		th := tp.Tanh(v)
		mixed := tp.Mul(s, th)
		return tp.SquaredError(mixed, []float64{0.3, -0.1, 0.2, 0.5, -0.4, 0})
	})
}

func TestConcatGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := NewParamInit("a", 3, 1, rng)
	b := NewParamInit("b", 2, 1, rng)
	checkGrads(t, []*Param{a, b}, func(tp *Tape) *Value {
		c := tp.Concat(tp.Use(a), tp.Use(b))
		return tp.SquaredError(c, []float64{1, 2, 3, 4, 5})
	})
}

func TestWeightedSumConstGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	alpha := NewParamInit("alpha", 3, 1, rng)
	// Three peers of expert 3, two floats each, in rows padded to four lanes.
	rows := []float64{1, 2, 0, 0, 0.5, -1, 0, 0, -0.3, 0.8, 0, 0, 9, 9, 9, 9}
	checkGrads(t, []*Param{alpha}, func(tp *Tape) *Value {
		v := tp.WeightedSumConst(tp.Use(alpha), 3, rows, 4, 2, 1)
		return tp.SquaredError(v, []float64{0.2, -0.5})
	})
	// Three peers' blocks of two units by two windows around expert 1's,
	// each window's context taken out by Column.
	blocks := []float64{-2, 0.4, 1.5, -0.6, 9, 9, 9, 9, 1, 2, 0.5, -1, -0.3, 0.8, 0.1, 0.7}
	checkGrads(t, []*Param{alpha}, func(tp *Tape) *Value {
		v := tp.WeightedSumConst(tp.Use(alpha), 1, blocks, 4, 2, 2)
		return tp.SumScalars(tp.SquaredError(tp.Column(v, 0), []float64{0.2, -0.5}), tp.SquaredError(tp.Column(v, 1), []float64{1, 0.3}))
	})
}

func TestPinballGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := NewParamInit("p", 3, 1, rng)
	// Targets chosen away from the predictions so the kink is not hit.
	checkGrads(t, []*Param{p}, func(tp *Tape) *Value {
		return tp.Pinball(tp.Use(p), []float64{5, 5, 5}, []float64{0.5, 0.05, 0.95})
	})
}

func TestPinballValue(t *testing.T) {
	tape := NewTape()
	pred := tape.Const([]float64{2})
	// target 5, q 0.9: Δ = 3 ≥ 0 → 0.9*3 = 2.7
	l := tape.Pinball(pred, []float64{5}, []float64{0.9})
	if math.Abs(l.Data[0]-2.7) > 1e-12 {
		t.Errorf("pinball(2; 5, 0.9) = %v, want 2.7", l.Data[0])
	}
	tape2 := NewTape()
	pred2 := tape2.Const([]float64{7})
	// Δ = -2 < 0 → (0.9-1)*(-2) = 0.2
	l2 := tape2.Pinball(pred2, []float64{5}, []float64{0.9})
	if math.Abs(l2.Data[0]-0.2) > 1e-12 {
		t.Errorf("pinball(7; 5, 0.9) = %v, want 0.2", l2.Data[0])
	}
}

// TestPinballQuantileConvergence asserts the fixed point of pinball descent
// is the q-th quantile: optimising a constant against uniform samples must
// land near the target quantile.
func TestPinballQuantileConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	samples := make([]float64, 2000)
	for i := range samples {
		samples[i] = rng.Float64() // uniform(0,1): q-quantile = q
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		p := NewParam("c", 1, 1)
		BindGrads(nil, []*Param{p})
		p.Data[0] = 0.5
		lr := 0.01
		tape := NewTape()
		for epoch := 0; epoch < 60; epoch++ {
			for _, y := range samples {
				tape.Reset()
				l := tape.Pinball(tape.Use(p), []float64{y}, []float64{q})
				tape.Backward(l)
				p.Data[0] -= lr * p.Grad[0]
				clear(p.Grad)
			}
			lr *= 0.93
		}
		if math.Abs(p.Data[0]-q) > 0.05 {
			t.Errorf("q=%.1f: converged to %.3f, want ≈%.3f", q, p.Data[0], q)
		}
	}
}

func TestSumScalars(t *testing.T) {
	tape := NewTape()
	a := tape.Const([]float64{1.5})
	b := tape.Const([]float64{-0.5})
	c := tape.Const([]float64{2})
	s := tape.SumScalars(a, b, c)
	if s.Data[0] != 3 {
		t.Fatalf("SumScalars = %v, want 3", s.Data[0])
	}
	tape.Backward(s)
	for _, v := range []*Value{a, b, c} {
		if v.Grad[0] != 1 {
			t.Errorf("grad = %v, want 1", v.Grad[0])
		}
	}
}

func TestUseAliasesParam(t *testing.T) {
	p := NewParam("p", 2, 1)
	if p.Grad != nil {
		t.Fatalf("a fresh parameter owns a gradient of %d floats", len(p.Grad))
	}
	BindGrads(nil, []*Param{p})
	p.Data[0], p.Data[1] = 1, 2
	tape := NewTape()
	v := tape.Use(p)
	l := tape.SquaredError(v, []float64{0, 0})
	tape.Backward(l)
	if p.Grad[0] != 2 || p.Grad[1] != 4 {
		t.Fatalf("gradient not accumulated into param: %v", p.Grad)
	}
	// A second pass accumulates rather than overwrites.
	tape2 := NewTape()
	l2 := tape2.SquaredError(tape2.Use(p), []float64{0, 0})
	tape2.Backward(l2)
	if p.Grad[0] != 4 || p.Grad[1] != 8 {
		t.Fatalf("gradient should accumulate across passes: %v", p.Grad)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with mismatched shapes should panic")
		}
	}()
	tape := NewTape()
	tape.Add(tape.Const([]float64{1, 2}), tape.Const([]float64{1}))
}

func TestBackwardNonScalarPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Backward on a non-scalar should panic")
		}
	}()
	tape := NewTape()
	tape.Backward(tape.Const([]float64{1, 2}))
}

func TestTapeReset(t *testing.T) {
	tape := NewTape()
	tape.Const([]float64{1})
	tape.Const([]float64{2})
	if tape.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d, want 2", tape.NumNodes())
	}
	tape.Reset()
	if tape.NumNodes() != 0 {
		t.Fatalf("NumNodes after Reset = %d, want 0", tape.NumNodes())
	}
}

// Property: sigmoid output is always in (0,1) and tanh in (-1,1), for any
// finite input.
func TestActivationRangeProperty(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		tape := NewTape()
		v := tape.Const([]float64{x})
		s := tape.Sigmoid(v).Data[0]
		th := tape.Tanh(v).Data[0]
		return s >= 0 && s <= 1 && th >= -1 && th <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: for any vectors a and b of equal length, adding b and then −1·b
// returns a.
func TestAddSubRoundTripProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		a := make([]float64, len(raw))
		b := make([]float64, len(raw))
		for i, v := range raw {
			// Clamp to a range where a+b cannot overflow — float
			// round-trip identity only holds in finite arithmetic.
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				v = 1
			}
			a[i] = v
			b[i] = v / 2
		}
		tape := NewTape()
		av := tape.Const(a)
		bv := tape.Const(b)
		back := tape.Add(tape.Add(av, bv), tape.ScaleConst(bv, -1))
		for i := range a {
			if math.Abs(back.Data[i]-a[i]) > 1e-9*(1+math.Abs(a[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBindGradsLendsOneBuffer: gradients are lent, zeroed, out of one buffer
// that is reused when large enough, and taken back; a training tape refuses a
// parameter that has none.
func TestBindGradsLendsOneBuffer(t *testing.T) {
	a, b := NewParam("a", 2, 3), NewParam("b", 4, 1)
	params := []*Param{a, b}
	buf := BindGrads(nil, params)
	if len(buf) != 10 || len(a.Grad) != 6 || len(b.Grad) != 4 || &a.Grad[0] != &buf[0] || &b.Grad[0] != &buf[6] {
		t.Fatalf("gradients are not consecutive runs of one %d-float buffer", len(buf))
	}
	a.Grad[5], b.Grad[0] = 1, 2
	if cap(a.Grad) != 6 {
		t.Errorf("a.Grad can grow into b.Grad: cap %d", cap(a.Grad))
	}
	small := []*Param{b}
	if again := BindGrads(buf, small); &again[0] != &buf[0] || b.Grad[0] != 0 {
		t.Errorf("a large enough buffer was not reused zeroed: %v", b.Grad)
	}
	UnbindGrads(params)
	if a.Grad != nil || b.Grad != nil {
		t.Fatal("UnbindGrads left a gradient behind")
	}
	defer func() {
		if recover() == nil {
			t.Error("a training tape used a parameter without a gradient")
		}
	}()
	NewTape().Use(a)
}

// TestCarveKeepsValuesInOneAllocation: carved parameters have their shapes
// and names, start at zero, and their values are consecutive runs of one
// allocation that cannot grow into one another.
func TestCarveKeepsValuesInOneAllocation(t *testing.T) {
	ps := Carve([]Shape{{"a", 3, 5}, {"e", 0, 1}, {"b", 7, 1}})
	a, empty, b := ps[0], ps[1], ps[2]
	if a.Name != "a" || a.Rows != 3 || a.Cols != 5 || b.Name != "b" || b.Rows != 7 || b.Cols != 1 || empty.Size() != 0 {
		t.Fatalf("carved %+v %+v %+v", *a, *empty, *b)
	}
	for _, p := range ps {
		for i, v := range p.Data {
			if v != 0 {
				t.Fatalf("%s[%d] = %v, want 0", p.Name, i, v)
			}
		}
	}
	if len(a.Data) != 15 || cap(a.Data) != 15 || len(b.Data) != 7 ||
		uintptr(unsafe.Pointer(&b.Data[0]))-uintptr(unsafe.Pointer(&a.Data[0])) != 15*8 {
		t.Fatalf("carved values are not consecutive runs of one allocation (len %d cap %d)", len(a.Data), cap(a.Data))
	}
	rng, want := rand.New(rand.NewSource(9)), NewParamInit("a", 3, 5, rand.New(rand.NewSource(9)))
	if a.InitGlorot(rng); !slices.Equal(a.Data, want.Data) {
		t.Fatalf("InitGlorot = %v, NewParamInit = %v", a.Data, want.Data)
	}
}

// roundingSource is a rand.Source whose every seventh Int63 rounds to 1<<63
// as a float64: the one value rand.Float64 draws again.
type roundingSource struct {
	rand.Source
	n int
}

func (s *roundingSource) Int63() int64 {
	if s.n++; s.n%7 == 0 {
		return 1<<63 - 1
	}
	return s.Source.Int63()
}

// TestInitGlorotColsKeepsDenseDraws: the kept columns hold the dense
// matrix's draws at their positions, bit for bit, and the generator ends
// where the dense draw leaves it, also when dropped draws are Float64's
// resamples.
func TestInitGlorotColsKeepsDenseDraws(t *testing.T) {
	const rows, dense = 4, 9
	cols := []int{0, 3, 4, 8}
	for _, rounding := range []bool{false, true} {
		newRand := func() *rand.Rand {
			var src rand.Source = rand.NewSource(3)
			if rounding {
				src = &roundingSource{Source: src}
			}
			return rand.New(src)
		}
		full, fullRng := NewParam("full", rows, dense), newRand()
		full.InitGlorot(fullRng)
		kept, keptRng := NewParam("kept", rows, len(cols)), newRand()
		kept.InitGlorotCols(keptRng, dense, cols)
		for r := range rows {
			for j, c := range cols {
				if got, want := kept.Data[r*len(cols)+j], full.Data[r*dense+c]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("rounding %v: kept[%d][%d] = %v, dense column %d drew %v", rounding, r, j, got, c, want)
				}
			}
		}
		if got, want := keptRng.Int63(), fullRng.Int63(); got != want {
			t.Fatalf("rounding %v: the generator's next value is %d after the kept draw, %d after the dense one", rounding, got, want)
		}
	}
}
