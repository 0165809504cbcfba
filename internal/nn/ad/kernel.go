package ad

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

// Step advances the cell one time step without a tape, from input products
// formed for a whole series at once: wx holds Wz·x, Wk·x and Wh·x, gate after
// gate, each row stride floats long with step t's product at column t (the
// layout WindowDots writes). It runs the same forward body as the tape's
// GRUStep, so the hidden trajectory is bit-identical to the eval-tape
// recurrence. hOut must not alias hPrev; scratch needs three times the hidden
// width and is clobbered.
func (g *GRUParams) Step(wx []float64, stride, t int, hPrev, hOut, scratch []float64) {
	hid := g.Wz.Rows
	// The candidate is written into hOut and blended in place.
	g.forward(wx, stride, t, hPrev, scratch[:hid], scratch[hid:2*hid], scratch[2*hid:3*hid], hOut, hOut)
}

// forward is the one GRU forward body, shared by Step and Tape.GRUStep:
//
//	z = σ(Wz·x + Uz·h + bz)
//	k = σ(Wk·x + Uk·h + bk)
//	c = tanh(Wh·x + Uh·(k ⊙ h) + bh)
//	h' = z ⊙ h + (1 − z) ⊙ c
//
// The three input products are the caller's: row i of gate g's is
// wx[(g*hidden+i)*stride+col]. forward fills z, k, kh = k ⊙ h and c (which
// the tape retains for its backward pass) and writes h' to out. Every float64
// operation and its order match the primitive MatVec/Add/Mul/Sigmoid/Tanh
// chain. out may alias c; nothing else may alias.
func (g *GRUParams) forward(wx []float64, stride, col int, h, z, k, kh, c, out []float64) {
	hid := g.Wz.Rows
	h = h[:hid]
	gatePre(z, wx[col:], stride, g.Uz.Data, h, g.Bz.Data)
	gatePre(k, wx[hid*stride+col:], stride, g.Uk.Data, h, g.Bk.Data)
	sigmoids(z)
	sigmoids(k)
	for i := range kh {
		kh[i] = k[i] * h[i]
	}
	gatePre(c, wx[2*hid*stride+col:], stride, g.Uh.Data, kh, g.Bh.Data)
	tanhs(c)
	for i := range out {
		// The same intermediate roundings as the Mul/OneMinus/Mul/Add
		// chain.
		zh := z[i] * h[i]
		oc := (1 - z[i]) * c[i]
		out[i] = zh + oc
	}
}

// gatePre writes a gate's pre-activation dst[i] = (wx[i*stride] + U[i]·h) +
// b[i], wx[i*stride] being row i of the gate's input product: the two row
// sums are formed separately and then added, as the MatVec/Add chain does.
func gatePre(dst, wx []float64, stride int, u, h, b []float64) {
	matVec(dst, u, h)
	for i, bi := range b[:len(dst)] {
		dst[i] = (wx[i*stride] + dst[i]) + bi
	}
}
