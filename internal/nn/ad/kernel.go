package ad

import "fmt"

// This file exports the fused-kernel math for the tape-free inference
// engine (internal/estimator/infer). The engine replays the forward pass
// over a trained model's parameters without recording tape nodes; sharing
// WindowDots (each sum in dot's order), stableSigmoid and the GRU forward
// body with the tape ops keeps the two paths' rounding behaviour identical,
// so engine output is bit-for-bit the eval-tape output (absent FMA
// contraction).

// Logistic exposes the numerically-stable sigmoid the tape's Sigmoid op
// applies element-wise.
func Logistic(x float64) float64 { return stableSigmoid(x) }

// Panels is a trajectory's transposed copy of its cell's three U matrices,
// which the AVX2 row kernels read with plain loads instead of gathering each
// 4×4 block of U at every step: the trajectory's first step (Step or
// Tape.GRUStepAt) fills it from the columns it gathers anyway. A Panels
// serves one cell between Resets, while U does not change. The Go loops and
// the hidden%4 rows read U where it lies.
type Panels struct {
	buf    []float64 // Uz's panels, then Uk's, then Uh's, each hidden² floats
	packed bool      // an earlier Step filled buf
}

// Reset readies p for a new trajectory of a cell hidden units wide: empty,
// with room for 3·hidden² floats. Where the AVX2 kernels are not selected it
// keeps no buffer, and Step reads U where it lies.
func (p *Panels) Reset(hidden int) {
	p.packed = false
	if !useAVX2 {
		p.buf = nil
		return
	}
	if n := 3 * hidden * hidden; cap(p.buf) < n {
		p.buf = make([]float64, n)
	} else {
		p.buf = p.buf[:n]
	}
}

// Step advances the cell one time step without a tape: Tape.GRUStepAt's
// forward body on the same operands, so the trajectory is bit-identical to
// the tape's. hOut must not alias hPrev; scratch needs three times the hidden
// width and is clobbered.
func (g *GRUParams) Step(wx []float64, stride, t int, hPrev, hOut, scratch []float64, up *Panels) {
	hid := g.Wz.Rows
	// The candidate is written into hOut and blended in place.
	g.forward(wx, stride, t, hPrev, scratch[:hid], scratch[hid:2*hid], scratch[2*hid:3*hid], hOut, hOut, up)
}

// forward is the one GRU forward body, shared by Step and Tape.GRUStepAt:
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
// chain, whichever copy of U the products read. out may alias c; nothing else
// may alias. up is the trajectory's Panels, or nil to read U where it lies on
// the Go loops.
func (g *GRUParams) forward(wx []float64, stride, col int, h, z, k, kh, c, out []float64, up *Panels) {
	hid := g.Wz.Rows
	h = h[:hid]
	var pz, pk, ph []float64
	packed := false
	if up != nil && up.buf != nil && useAVX2 {
		n := hid * hid
		pz, pk, ph = up.buf[:n], up.buf[n:2*n], up.buf[2*n:3*n]
		packed, up.packed = up.packed, true
	}
	gatePre(z, wx[col:], stride, g.Uz.Data, h, g.Bz.Data, pz, packed)
	gatePre(k, wx[hid*stride+col:], stride, g.Uk.Data, h, g.Bk.Data, pk, packed)
	sigmoids(z)
	sigmoids(k)
	for i := range kh {
		kh[i] = k[i] * h[i]
	}
	gatePre(c, wx[2*hid*stride+col:], stride, g.Uh.Data, kh, g.Bh.Data, ph, packed)
	tanhs(c)
	for i := range out {
		// The same intermediate roundings as the Mul/OneMinus/Mul/Add
		// chain.
		zh := z[i] * h[i]
		oc := (1 - z[i]) * c[i]
		out[i] = zh + oc
	}
}

// InputProducts writes a block's input products Wz·x, Wk·x and Wh·x, gate
// after gate, hidden rows of tp floats, to wx for the windows of xT (rows of
// tp floats, time-minor; see WindowDots). The cell's input k is row rows[k]
// of xT: the rows are gathered into xm and each gated there, x̃[k] =
// gate[k]·x[k] (the mask's σ(m) ⊙ x), in one pass (gateRows); with no row
// list and no gate the products read xT's first In rows where they lie. tp
// must be a multiple of four. It returns the input the products read. A cell
// of no inputs gets +0 products: the sum of nothing.
func (g *GRUParams) InputProducts(wx, xm, xT []float64, rows []int, gate []float64, tp int) []float64 {
	hid, in := g.Wz.Rows, g.Wz.Cols
	if rows == nil && len(gate) > 0 || rows != nil && (len(rows) != in || len(gate) != in) {
		panic(fmt.Sprintf("ad: InputProducts: %d rows and %d gates for a cell of %d inputs", len(rows), len(gate), in))
	}
	if rows != nil {
		gateRows(xm, gate, xT, rows, tp)
		xT = xm
	}
	xT = xT[:in*tp]
	for i, w := range [...]*Param{g.Wz, g.Wk, g.Wh} {
		WindowDots(wx[i*hid*tp:], w.Data, xT, hid, in, tp)
	}
	return xT
}

// gatePre writes a gate's pre-activation dst[i] = (wx[i*stride] + U[i]·h) +
// b[i], wx[i*stride] being row i of the gate's input product: the two row
// sums are formed separately and then added, as the MatVec/Add chain does.
// panel and packed are packedMatVec's: U's panels, and whether they are
// filled.
func gatePre(dst, wx []float64, stride int, u, h, b, panel []float64, packed bool) {
	packedMatVec(dst, u, h, panel, packed)
	for i, bi := range b[:len(dst)] {
		dst[i] = (wx[i*stride] + dst[i]) + bi
	}
}
