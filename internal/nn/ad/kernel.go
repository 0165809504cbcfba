package ad

import "math"

// This file exports the fused-kernel math for the tape-free inference
// engine (internal/estimator/infer). The engine replays the forward pass
// over a trained model's parameters without recording tape nodes; sharing
// dot, stableSigmoid and the GRU forward body with the tape ops keeps the
// two paths' rounding behaviour identical, so engine output is bit-for-bit
// the eval-tape output (absent FMA contraction).

// Dot exposes the row·vector kernel shared by MatVec and the GRU forward.
// Callers computing dense layers outside the tape must use it (rather than
// a local loop) so both paths accumulate in the same order.
func Dot(row, x []float64) float64 { return dot(row, x) }

// Logistic exposes the numerically-stable sigmoid the tape's Sigmoid op
// applies element-wise.
func Logistic(x float64) float64 { return stableSigmoid(x) }

// ScratchLen returns the workspace length Step requires.
func (g *GRUParams) ScratchLen() int { return 3 * g.Wz.Rows }

// Step advances the cell one time step without a tape: hOut = GRU(x, hPrev).
// It runs the same forward body as the tape's GRUStep, so the hidden
// trajectory is bit-identical to the eval-tape recurrence. hOut must not
// alias hPrev; scratch needs ScratchLen floats and is clobbered.
func (g *GRUParams) Step(x, hPrev, hOut, scratch []float64) {
	hid := g.Wz.Rows
	// The candidate is written into hOut and blended in place.
	g.forward(x, hPrev, scratch[:hid], scratch[hid:2*hid], scratch[2*hid:3*hid], hOut, hOut)
}

// forward is the one GRU forward body, shared by Step and Tape.GRUStep:
//
//	z = σ(Wz·x + Uz·h + bz)
//	k = σ(Wk·x + Uk·h + bk)
//	c = tanh(Wh·x + Uh·(k ⊙ h) + bh)
//	h' = z ⊙ h + (1 − z) ⊙ c
//
// It fills z, k, kh = k ⊙ h and c (which the tape retains for its backward
// pass) and writes h' to out. Every float64 operation and its order match
// the primitive MatVec/Add/Mul/Sigmoid/Tanh chain. out may alias c; nothing
// else may alias.
func (g *GRUParams) forward(x, h, z, k, kh, c, out []float64) {
	x, h = x[:g.Wz.Cols], h[:g.Wz.Rows]
	gatePre(z, g.Wz.Data, x, g.Uz.Data, h, g.Bz.Data)
	gatePre(k, g.Wk.Data, x, g.Uk.Data, h, g.Bk.Data)
	for i := range kh {
		z[i] = stableSigmoid(z[i])
		k[i] = stableSigmoid(k[i])
		kh[i] = k[i] * h[i]
	}
	gatePre(c, g.Wh.Data, x, g.Uh.Data, kh, g.Bh.Data)
	for i := range out {
		// The same intermediate roundings as the Mul/OneMinus/Mul/Add
		// chain.
		ci := math.Tanh(c[i])
		c[i] = ci
		zh := z[i] * h[i]
		oc := (1 - z[i]) * ci
		out[i] = zh + oc
	}
}

// gatePre writes a gate's pre-activation dst[i] = (W[i]·x + U[i]·h) + b[i]:
// the two row sums are formed separately and then added, as the MatVec/Add
// chain does. With AVX2 the whole four-row panels go through matVec's
// assembly rungs, up to sixteen rows at a time with the two partial products
// held on the stack; otherwise rows go four at a time through dot4. The
// len(dst)%4 remainder goes through dot either way.
func gatePre(dst, w, x, u, h, b []float64) {
	in, hid := len(x), len(h)
	i := 0
	if useAVX2 {
		var wx, uh [16]float64
		for i+4 <= len(dst) {
			n := min(len(wx), (len(dst)-i)&^3)
			matVec(wx[:n], w[i*in:(i+n)*in], x)
			matVec(uh[:n], u[i*hid:(i+n)*hid], h)
			for r, bi := range b[i : i+n] {
				dst[i+r] = (wx[r] + uh[r]) + bi
			}
			i += n
		}
	}
	for ; i+4 <= len(dst); i += 4 {
		w0, w1, w2, w3 := dot4(w[i*in:(i+4)*in], x)
		u0, u1, u2, u3 := dot4(u[i*hid:(i+4)*hid], h)
		dst[i] = (w0 + u0) + b[i]
		dst[i+1] = (w1 + u1) + b[i+1]
		dst[i+2] = (w2 + u2) + b[i+2]
		dst[i+3] = (w3 + u3) + b[i+3]
	}
	for ; i < len(dst); i++ {
		wx := dot(w[i*in:(i+1)*in], x)
		uh := dot(u[i*hid:(i+1)*hid], h)
		dst[i] = (wx + uh) + b[i]
	}
}
