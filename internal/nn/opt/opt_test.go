package opt

import (
	"math"
	"testing"

	"repro/internal/nn/ad"
)

// quadratic builds the gradient of f(x) = Σ (x_i - target)² into p.Grad.
func quadraticGrad(p *ad.Param, target float64) {
	for i, x := range p.Data {
		p.Grad[i] += 2 * (x - target)
	}
}

// boundParam is an n-vector with a gradient bound, as a trainer holds it.
func boundParam(n int) *ad.Param {
	p := ad.NewParam("p", n, 1)
	ad.BindGrads(nil, []*ad.Param{p})
	return p
}

func TestAdamConverges(t *testing.T) {
	p := boundParam(4)
	for i := range p.Data {
		p.Data[i] = float64(i) * 3
	}
	o := NewAdam([]*ad.Param{p}, 0.1)
	for i := 0; i < 500; i++ {
		quadraticGrad(p, 1.5)
		o.Step()
	}
	for _, x := range p.Data {
		if math.Abs(x-1.5) > 1e-3 {
			t.Fatalf("Adam did not converge: %v", p.Data)
		}
	}
}

func TestStepZeroesGradients(t *testing.T) {
	p := boundParam(2)
	p.Grad[0], p.Grad[1] = 1, 2
	NewAdam([]*ad.Param{p}, 0.1).Step()
	if p.Grad[0] != 0 || p.Grad[1] != 0 {
		t.Fatal("Adam.Step must clear gradients")
	}
}

func TestClipGradNorm(t *testing.T) {
	p := boundParam(2)
	p.Grad[0], p.Grad[1] = 3, 4 // norm 5
	pre := ClipGradNorm([]*ad.Param{p}, 1)
	if pre != 5 {
		t.Fatalf("pre-clip norm = %v, want 5", pre)
	}
	norm := math.Hypot(p.Grad[0], p.Grad[1])
	if math.Abs(norm-1) > 1e-12 {
		t.Fatalf("post-clip norm = %v, want 1", norm)
	}
	// No-op cases.
	p.Grad[0], p.Grad[1] = 0.3, 0.4
	ClipGradNorm([]*ad.Param{p}, 1)
	if p.Grad[0] != 0.3 {
		t.Fatal("clip must not modify gradients under the bound")
	}
	ClipGradNorm([]*ad.Param{p}, 0)
	if p.Grad[0] != 0.3 {
		t.Fatal("maxNorm 0 must disable clipping")
	}
}

// TestAdamScaleInvariance: Adam's per-parameter normalisation makes early
// steps roughly equal to ±LR regardless of gradient magnitude.
func TestAdamFirstStepSize(t *testing.T) {
	p := boundParam(1)
	p.Grad[0] = 1e6
	o := NewAdam([]*ad.Param{p}, 0.01)
	o.Step()
	if math.Abs(p.Data[0]+0.01) > 1e-6 {
		t.Fatalf("first Adam step = %v, want ≈ -0.01", p.Data[0])
	}
}

// TestAdamRates: a parameter steps at LR times its rate, and a rate of 1
// steps exactly as no rates do.
func TestAdamRates(t *testing.T) {
	a, b, c := boundParam(1), boundParam(1), boundParam(1)
	a.Grad[0], b.Grad[0], c.Grad[0] = 1, 1, 1
	o := NewAdam([]*ad.Param{a, b}, 0.01)
	o.Rates = []float64{1, 3}
	o.Step()
	plain := NewAdam([]*ad.Param{c}, 0.01)
	plain.Step()
	if math.Float64bits(a.Data[0]) != math.Float64bits(c.Data[0]) {
		t.Fatalf("rate 1 stepped to %v, no rates to %v", a.Data[0], c.Data[0])
	}
	if math.Abs(b.Data[0]-3*a.Data[0]) > 1e-12 {
		t.Fatalf("rate 3 stepped to %v, rate 1 to %v", b.Data[0], a.Data[0])
	}
}

// adamReference is Adam.Step as it was written before the update moved into
// ad.AdamUpdate: the scalar loop, kept as the oracle for the wiring (bias
// corrections, clipping before the update, gradients zeroed after it).
type adamReference struct {
	lr, clip float64
	m, v     [][]float64
	step     int
}

func (o *adamReference) Step(params []*ad.Param) {
	// Variables, not constants: 1−β must be the float64 subtraction the
	// optimizer performs at run time, not the exact constant expression.
	beta1, beta2, eps := 0.9, 0.999, 1e-8
	ClipGradNorm(params, o.clip)
	o.step++
	c1 := 1 - math.Pow(beta1, float64(o.step))
	c2 := 1 - math.Pow(beta2, float64(o.step))
	for i, p := range params {
		if len(o.m) <= i {
			o.m = append(o.m, make([]float64, p.Size()))
			o.v = append(o.v, make([]float64, p.Size()))
		}
		m, v := o.m[i], o.v[i]
		for j, g := range p.Grad {
			m[j] = beta1*m[j] + (1-beta1)*g
			v[j] = beta2*v[j] + (1-beta2)*g*g
			mh := m[j] / c1
			vh := v[j] / c2
			p.Data[j] -= o.lr * mh / (math.Sqrt(vh) + eps)
		}
		clear(p.Grad)
	}
}

func testParams(sizes ...int) []*ad.Param {
	ps := make([]*ad.Param, len(sizes))
	for i, n := range sizes {
		ps[i] = boundParam(n)
		for j := range ps[i].Data {
			ps[i].Data[j] = float64(i+1) * math.Sin(float64(j+1))
		}
	}
	return ps
}

// TestAdamStepBitsMatchReference: three steps of Adam.Step over several
// parameters leave the same bits as the scalar loop it replaced, with
// clipping on and off — and so does an Adam that was Reset from another,
// larger or smaller, parameter set first: a reused moment buffer starts
// every expert from +0 like a fresh one.
func TestAdamStepBitsMatchReference(t *testing.T) {
	for _, clip := range []float64{0, 0.5} {
		for _, reused := range []bool{false, true} {
			got, want := testParams(1, 5, 67, 260), testParams(1, 5, 67, 260)
			var o *Adam
			if reused {
				first := testParams(3, 900)
				o = NewAdam(first, 0.3)
				quadraticGrad(first[1], 1)
				o.Step()
				o.Reset(testParams(2)) // shrink, then grow back past the first size
				o.Reset(got)
				o.LR = 0.05
			} else {
				o = NewAdam(got, 0.05)
			}
			o.ClipNorm = clip
			ref := &adamReference{lr: 0.05, clip: clip}
			for step := 0; step < 3; step++ {
				for i := range got {
					quadraticGrad(got[i], float64(step))
					quadraticGrad(want[i], float64(step))
				}
				o.Step()
				ref.Step(want)
				for i := range got {
					for j := range got[i].Data {
						if math.Float64bits(got[i].Data[j]) != math.Float64bits(want[i].Data[j]) {
							t.Fatalf("clip=%v reused=%v step %d: param %d[%d] = %x, want %x", clip, reused, step+1, i, j,
								math.Float64bits(got[i].Data[j]), math.Float64bits(want[i].Data[j]))
						}
						if got[i].Grad[j] != 0 {
							t.Fatalf("clip=%v reused=%v step %d: gradient %d[%d] not zeroed", clip, reused, step+1, i, j)
						}
					}
				}
			}
		}
	}
}
