package ad

import "fmt"

// GRUParams bundles the nine parameter tensors of one GRU cell (paper
// Equation 2): W· act on the input (Hidden×In), U· on the previous state
// (Hidden×Hidden), B· are biases (Hidden), for the update gate z, reset gate
// k, and candidate h̃. It is the one representation of a cell's weights: the
// fused tape op reads Data and accumulates into Grad directly, so no Use
// nodes are recorded, and the tape-free Step (kernel.go) reads the same Data
// where it lies.
type GRUParams struct {
	Wz, Uz, Bz *Param
	Wk, Uk, Bk *Param
	Wh, Uh, Bh *Param
}

// GRUStep advances a GRU cell one time step as a single fused tape op:
//
//	z = σ(Wz·x + Uz·h + bz)
//	k = σ(Wk·x + Uk·h + bk)
//	h̃ = tanh(Wh·x + Uh·(k ⊙ h) + bh)
//	h' = z ⊙ h + (1 − z) ⊙ h̃
//
// It replaces the ~28-node chain of MatVec/Add/Mul/Sigmoid/Tanh primitives
// a composed implementation records, with one node and a hand-written
// backward. The forward is GRUParams.forward, the body the tape-free
// serving step runs too; it and the backward perform the same float64
// operations in the same order as the composed chain (see gruBackward), so
// losses and gradients are bit-identical to it on targets without fused
// multiply-add contraction.
func (t *Tape) GRUStep(g *GRUParams, x, hPrev *Value) *Value {
	in, hid := g.Wz.Cols, g.Wz.Rows
	if x.Rows != in || x.Cols != 1 || hPrev.Rows != hid || hPrev.Cols != 1 {
		panic(fmt.Sprintf("ad: GRUStep shape mismatch: x %dx%d, h %dx%d for a %d→%d cell",
			x.Rows, x.Cols, hPrev.Rows, hPrev.Cols, in, hid))
	}
	out := t.newValue(hid, 1)
	// Gate activations are retained for the backward pass: z, k, candidate
	// c, and the reset-gated state kh = k ⊙ hPrev.
	aux := t.alloc(4 * hid)
	z, k, c, kh := aux[:hid], aux[hid:2*hid], aux[2*hid:3*hid], aux[3*hid:]
	g.forward(x.Data, hPrev.Data, z, k, kh, c, out.Data)
	if t.grad {
		if len(g.Wz.Grad) != len(g.Wz.Data) {
			panic("ad: GRUStep on a training tape without bound gradients (see BindGrads)")
		}
		out.op, out.a, out.b, out.aux, out.gru = opGRUStep, x, hPrev, aux, g
	}
	return t.record(out)
}

// gruBackward is the hand-written adjoint of GRUStep. The composed chain
// accumulates gradients per memory location in a fixed order as Backward
// walks its ~28 nodes in reverse; this function performs the identical
// per-location accumulation sequence — hPrev.Grad receives its four terms
// in the order blend, reset-gate product, Uk row sweep, Uz row sweep, and
// x.Grad its three in the order Wh, Wk, Wz — so every gradient matches the
// unfused engine bit for bit (absent FMA contraction).
func (t *Tape) gruBackward(v *Value) {
	g, x, hPrev := v.gru, v.a, v.b
	hid := g.Wz.Rows
	z, k, c, kh := v.aux[:hid], v.aux[hid:2*hid], v.aux[2*hid:3*hid], v.aux[3*hid:]
	gh := v.Grad
	xd, hd := x.Data, hPrev.Data

	buf := t.scratchBuf(4 * hid)
	s2g, s6g, khg, s4g := buf[:hid], buf[hid:2*hid], buf[2*hid:3*hid], buf[3*hid:]

	// Blend h' = z⊙h + (1−z)⊙c: update-gate grad (pre-sigmoid transform
	// deferred) and the first hPrev term.
	for i := 0; i < hid; i++ {
		zg := 0.0
		zg -= gh[i] * c[i]  // through OneMinus(z)
		zg += gh[i] * hd[i] // through Mul(z, hPrev)
		s2g[i] = zg
		hPrev.Grad[i] += gh[i] * z[i]
	}
	// Candidate tanh: pre-activation grad and bias.
	for i := 0; i < hid; i++ {
		cg := gh[i] * (1 - z[i])
		s6 := cg * (1 - c[i]*c[i])
		s6g[i] = s6
		g.Bh.Grad[i] += s6
	}
	// MatVec(Uh, kh): weight grad and reset-gated-state grad.
	clear(khg)
	matVecAdjoint(g.Uh.Grad, khg, g.Uh.Data, kh, s6g)
	// Mul(k, hPrev): reset-gate grad (khg becomes kg in place) and the
	// second hPrev term.
	for i := 0; i < hid; i++ {
		gg := khg[i]
		hPrev.Grad[i] += gg * k[i]
		khg[i] = gg * hd[i]
	}
	matVecAdjoint(g.Wh.Grad, x.Grad, g.Wh.Data, xd, s6g)
	// Reset-gate sigmoid chain: σ′, bias, U sweep, W sweep.
	for i := 0; i < hid; i++ {
		s4 := khg[i] * k[i] * (1 - k[i])
		s4g[i] = s4
		g.Bk.Grad[i] += s4
	}
	matVecAdjoint(g.Uk.Grad, hPrev.Grad, g.Uk.Data, hd, s4g)
	matVecAdjoint(g.Wk.Grad, x.Grad, g.Wk.Data, xd, s4g)
	// Update-gate sigmoid chain.
	for i := 0; i < hid; i++ {
		s2 := s2g[i] * z[i] * (1 - z[i])
		s2g[i] = s2
		g.Bz.Grad[i] += s2
	}
	matVecAdjoint(g.Uz.Grad, hPrev.Grad, g.Uz.Data, hd, s2g)
	matVecAdjoint(g.Wz.Grad, x.Grad, g.Wz.Data, xd, s2g)
}
