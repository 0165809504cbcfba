// Package opt implements the optimizer every model here trains with — Adam
// over an ad.Param set — plus global gradient-norm clipping for stable
// recurrent training.
package opt

import (
	"math"

	"repro/internal/nn/ad"
)

// ClipGradNorm scales all gradients so their global L2 norm does not exceed
// maxNorm, and returns the pre-clip norm. A non-positive maxNorm is a no-op,
// and so is a non-finite norm: the scale maxNorm/Inf is 0, and Inf·0 is NaN.
func ClipGradNorm(params []*ad.Param, maxNorm float64) float64 {
	total := 0.0
	for _, p := range params {
		for _, g := range p.Grad {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if maxNorm <= 0 || norm <= maxNorm || norm == 0 || math.IsInf(norm, 0) || math.IsNaN(norm) {
		return norm
	}
	scale := maxNorm / norm
	for _, p := range params {
		for i := range p.Grad {
			p.Grad[i] *= scale
		}
	}
	return norm
}

// Adam is the Adam optimizer (Kingma & Ba) with bias correction. It updates
// a fixed set of parameters from the gradients their trainer has bound to
// them (ad.BindGrads) and zeroes those afterwards.
type Adam struct {
	// LR is the learning rate.
	LR float64
	// Beta1, Beta2 are the moment decay rates (defaults 0.9, 0.999).
	Beta1, Beta2 float64
	// Eps is the numerical stabiliser (default 1e-8).
	Eps float64
	// ClipNorm bounds the global gradient norm per step; 0 disables.
	ClipNorm float64
	// Rates, when set, holds one multiple of LR per parameter, in the
	// order Reset took them: parameter i steps at LR·Rates[i].
	Rates []float64

	params  []*ad.Param
	moments []float64   // every m, then every v, in params order
	m, v    [][]float64 // per-parameter views of moments
	step    int
}

// NewAdam returns an Adam optimizer over params with standard defaults.
func NewAdam(params []*ad.Param, lr float64) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
	a.Reset(params)
	return a
}

// Reset points the optimizer at params and restarts it — step count zero,
// both moment estimates +0, exactly the state NewAdam returns — reusing the
// moment buffer when it is large enough. A trainer that fits many parameter
// sets in turn keeps one Adam and resets it, instead of allocating (and
// page-faulting) fresh moments for each. Hyperparameters are left alone.
func (o *Adam) Reset(params []*ad.Param) {
	total := 0
	for _, p := range params {
		total += p.Size()
	}
	if cap(o.moments) < 2*total {
		o.moments = make([]float64, 2*total)
	} else {
		o.moments = o.moments[:2*total]
		clear(o.moments)
	}
	o.params, o.step = params, 0
	o.m, o.v = o.m[:0], o.v[:0]
	off := 0
	for _, p := range params {
		n := p.Size()
		o.m = append(o.m, o.moments[off:off+n:off+n])
		o.v = append(o.v, o.moments[total+off:total+off+n:total+off+n])
		off += n
	}
}

// Step applies one update and returns the gradients' global norm before
// clipping. The update itself is ad.AdamUpdate — the arithmetic of Kingma &
// Ba's Algorithm 1 with both bias corrections — which also zeroes the
// gradients. A non-finite norm, a NaN or ±Inf in some gradient, updates
// nothing: one such step writes NaN into every parameter it touches, so the
// caller refuses it instead.
func (o *Adam) Step() (norm float64) {
	norm = ClipGradNorm(o.params, o.ClipNorm)
	if math.IsInf(norm, 0) || math.IsNaN(norm) {
		return norm
	}
	o.step++
	h := ad.AdamHyper{
		Beta1: o.Beta1, Beta2: o.Beta2,
		C1: 1 - math.Pow(o.Beta1, float64(o.step)),
		C2: 1 - math.Pow(o.Beta2, float64(o.step)),
		LR: o.LR, Eps: o.Eps,
	}
	for i, p := range o.params {
		if o.Rates != nil {
			h.LR = o.LR * o.Rates[i]
		}
		ad.AdamUpdate(p.Data, p.Grad, o.m[i], o.v[i], h)
	}
	return norm
}
