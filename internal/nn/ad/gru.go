package ad

import (
	"fmt"
	"slices"
)

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

// GRUStepAt advances a GRU cell one time step as a single fused tape op:
//
//	z = σ(Wz·x + Uz·h + bz)
//	k = σ(Wk·x + Uk·h + bk)
//	h̃ = tanh(Wh·x + Uh·(k ⊙ h) + bh)
//	h' = z ⊙ h + (1 − z) ⊙ h̃
//
// It replaces the ~28-node chain of MatVec/Add/Mul/Sigmoid/Tanh primitives
// a composed implementation records, with one node and a hand-written
// backward. The forward is GRUParams.forward on the operands the engine's
// Step gets: x's input products under the current W at column col of wx,
// rows stride floats apart (see GRUParams.InputProducts), and the
// trajectory's Panels; the backward still reads x, for its gradient and the
// W gradients. Forward and backward perform the same float64 operations in
// the same order as the composed chain (see gruBackward), so losses and
// gradients are bit-identical to it on targets without fused multiply-add
// contraction.
func (t *Tape) GRUStepAt(g *GRUParams, x, hPrev *Value, wx []float64, stride, col int, up *Panels) *Value {
	in, hid := g.Wz.Cols, g.Wz.Rows
	if x.Rows != in || x.Cols != 1 || hPrev.Rows != hid || hPrev.Cols != 1 {
		panic(fmt.Sprintf("ad: GRUStepAt shape mismatch: x %dx%d, h %dx%d for a %d→%d cell",
			x.Rows, x.Cols, hPrev.Rows, hPrev.Cols, in, hid))
	}
	out := t.newValue(hid, 1)
	// Gate activations are retained for the backward pass: z, k, candidate
	// c, and the reset-gated state kh = k ⊙ hPrev. A training tape keeps
	// room behind them for the three δ vectors the backward leaves for the
	// flush (see gruBackward).
	n := 4 * hid
	if t.grad {
		n = 7 * hid
	}
	aux := t.alloc(n)
	z, k, c, kh := aux[:hid], aux[hid:2*hid], aux[2*hid:3*hid], aux[3*hid:4*hid]
	g.forward(wx, stride, col, hPrev.Data, z, k, kh, c, out.Data, up)
	if t.grad {
		if len(g.Wz.Grad) != len(g.Wz.Data) {
			panic("ad: GRUStepAt on a training tape without bound gradients (see BindGrads)")
		}
		out.op, out.a, out.b, out.aux, out.gru = opGRUStep, x, hPrev, aux, g
	}
	return t.record(out)
}

// gruBackward is the hand-written adjoint of GRUStepAt, less the six weight
// gradients. The composed chain accumulates gradients per memory location in
// a fixed order as Backward walks its ~28 nodes in reverse; this function
// performs the identical per-location accumulation sequence — hPrev.Grad
// receives its four terms in the order blend, reset-gate product, Uk row
// sweep, Uz row sweep, and x.Grad its three in the order Wh, Wk, Wz — so
// every gradient matches the unfused engine bit for bit (absent FMA
// contraction).
//
// Only what the recurrence needs now is computed per step: the bias
// gradients and the transposed products into x.Grad and hPrev.Grad. The
// step's pre-activation gradients δz, δk, δc stay in aux behind the
// activations (which are left intact, so Backward may run again), and the
// node joins t.gruSteps; flushGRU turns all of a chunk's δs into weight
// gradients at once.
func (t *Tape) gruBackward(v *Value) {
	g, x, hPrev := v.gru, v.a, v.b
	hid := g.Wz.Rows
	z, k, c := v.aux[:hid], v.aux[hid:2*hid], v.aux[2*hid:3*hid]
	dz, dk, dc := v.aux[4*hid:5*hid], v.aux[5*hid:6*hid], v.aux[6*hid:]
	gh := v.Grad
	hd := hPrev.Data
	khg := t.scratchBuf(hid)

	// Blend h' = z⊙h + (1−z)⊙c: update-gate grad (pre-sigmoid transform
	// deferred) and the first hPrev term.
	for i := 0; i < hid; i++ {
		zg := 0.0
		zg -= gh[i] * c[i]  // through OneMinus(z)
		zg += gh[i] * hd[i] // through Mul(z, hPrev)
		dz[i] = zg
		hPrev.Grad[i] += gh[i] * z[i]
	}
	// Candidate tanh: pre-activation grad and bias.
	for i := 0; i < hid; i++ {
		cg := gh[i] * (1 - z[i])
		s6 := cg * (1 - c[i]*c[i])
		dc[i] = s6
		g.Bh.Grad[i] += s6
	}
	// MatVec(Uh, kh): reset-gated-state grad.
	clear(khg)
	colSums(khg, g.Uh.Data, dc)
	// Mul(k, hPrev): reset-gate grad (khg becomes kg in place) and the
	// second hPrev term.
	for i := 0; i < hid; i++ {
		gg := khg[i]
		hPrev.Grad[i] += gg * k[i]
		khg[i] = gg * hd[i]
	}
	colSums(x.Grad, g.Wh.Data, dc)
	// Reset-gate sigmoid chain: σ′, bias, U sweep, W sweep.
	for i := 0; i < hid; i++ {
		s4 := khg[i] * k[i] * (1 - k[i])
		dk[i] = s4
		g.Bk.Grad[i] += s4
	}
	colSums(hPrev.Grad, g.Uk.Data, dk)
	colSums(x.Grad, g.Wk.Data, dk)
	// Update-gate sigmoid chain.
	for i := 0; i < hid; i++ {
		s2 := dz[i] * z[i] * (1 - z[i])
		dz[i] = s2
		g.Bz.Grad[i] += s2
	}
	colSums(hPrev.Grad, g.Uz.Data, dz)
	colSums(x.Grad, g.Wz.Data, dz)
	t.gruSteps = append(t.gruSteps, v)
}

// flushGRU forms the weight gradients of every cell whose steps Backward
// visited: dW[i,j] += Σ_t δ_t[i]·x_t[j] for the six matrices, t in visit
// order. Per location that is the sequence of addends the steps' own mat-vec
// adjoints would have added one visit at a time — provided nothing else adds
// to the matrix in between, which checkFused establishes — so the gradient is
// bit-equal, and each location is loaded and stored once per chunk instead
// of once per step.
func (t *Tape) flushGRU() {
	steps := t.gruSteps
	for n, first := range steps {
		g := first.gru
		if slices.ContainsFunc(steps[:n], func(v *Value) bool { return v.gru == g }) {
			continue // an earlier round flushed this cell
		}
		t.checkFused(g)
		hid := g.Wz.Rows
		// Each matrix with the index of its δ (z, k, c, behind the four
		// activations in aux) and of its operand (x, hPrev, kh).
		for _, m := range [...]struct {
			p         *Param
			delta, in int
		}{{g.Uh, 2, 2}, {g.Wh, 2, 0}, {g.Uk, 1, 1}, {g.Wk, 1, 0}, {g.Uz, 0, 1}, {g.Wz, 0, 0}} {
			terms := t.terms[:0]
			for _, v := range steps[n:] {
				if v.gru == g {
					in := [...][]float64{v.a.Data, v.b.Data, v.aux[3*hid : 4*hid]}
					terms = append(terms, outer{v.aux[(4+m.delta)*hid : (5+m.delta)*hid], in[m.in]})
				}
			}
			t.terms = terms
			outerSums(m.p.Grad, terms)
		}
	}
	t.gruSteps = steps[:0]
}

// checkFused panics if one of g's parameters is also on the tape as a Use
// node: the flush reorders a cell's weight gradients against anything else
// that adds to the same Grad during Backward, and a cell whose parameters
// only GRUStepAt touches has no such other.
func (t *Tape) checkFused(g *GRUParams) {
	for _, v := range t.nodes {
		if v.op != opUse || len(v.Grad) == 0 {
			continue
		}
		for _, p := range [...]*Param{g.Wz, g.Uz, g.Bz, g.Wk, g.Uk, g.Bk, g.Wh, g.Uh, g.Bh} {
			if len(p.Grad) > 0 && &p.Grad[0] == &v.Grad[0] {
				panic(fmt.Sprintf("ad: parameter %s is used by GRUStepAt and through Use on one tape; its gradient would not be the composed chain's", p.Name))
			}
		}
	}
}
