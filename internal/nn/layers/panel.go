package layers

import (
	"math/rand"
	"slices"

	"repro/internal/nn/ad"
)

// PanelExperts is how many experts one pass-two task covers, the engine's and
// phase B's alike: their attention contexts are one ad.WindowDots product,
// whose kernel takes the matrix's rows four at a time, and phase B fits them
// in lockstep.
const PanelExperts = 4

// PanelExpert is one expert's part in pass two: its trajectory's row of the
// slab and its head's weights (3 × 2·hidden) and bias.
type PanelExpert struct {
	Row          int
	HeadW, HeadB []float64
}

// Pass is the work area of pass two over one block of a slab: a panel's
// attention contexts, one expert's a_t ∥ h_t and its head's products.
type Pass struct {
	ctx, cat, head []float64
}

// Outputs is pass two, the one routine the engine and phase B form outputs
// with: over the block of s's windows that starts at b0 it forms the
// experts' attention contexts as one product of their rows of attn (P floats
// each, in experts order) with the block's trajectories (ad.WindowDots, a
// lane per window and unit; each context starts at +0 and adds the peers in
// order, Tape.WeightedSumConst's sum) — or, with attn nil (a model of one
// expert), leaves every context +0; then per expert its a_t ∥ h_t, copied
// row by row from the window-minor blocks into a series as WindowDots reads
// one, and the head over every window in one WindowDots, which sums each as
// the tape's MatVec does; then the bias and the slab's bypass output, in
// Expert.stepOutput's operation order.
// Expert e's window t goes to out[e*stride+t]. each, when not nil, is handed
// every expert's index and a_t ∥ h_t block (2·hidden rows of tp floats) after
// its outputs are written, before the next expert overwrites the block.
func (p *Pass) Outputs(s *Slab, b0 int, experts []PanelExpert, attn []float64, out [][3]float64, stride int, each func(e int, cat []float64, tp int)) {
	P, hid := s.Experts, s.Hidden
	rows, n, ts := s.Block(b0)
	if attn != nil {
		p.ctx = Resize(p.ctx, len(experts)*ts)
		ad.WindowDots(p.ctx, attn, rows, len(experts), P, ts)
	}
	tp := Lanes(n)
	p.cat = Resize(p.cat, 2*hid*tp) // unit u of a_t at u·tp+t, of h_t at (hid+u)·tp+t
	p.head = Resize(p.head, 3*tp)
	cat := p.cat
	clear(cat) // the padding lanes, and without attn the contexts, stay zero
	for e := range experts {
		ex := &experts[e]
		for u := 0; u < hid; u++ {
			if attn != nil {
				copy(cat[u*tp:][:n], p.ctx[e*ts+u*n:])
			}
			copy(cat[(hid+u)*tp:][:n], rows[ex.Row*ts+u*n:])
		}
		ad.WindowDots(p.head, ex.HeadW, cat, 3, 2*hid, tp)
		byp := s.Bypass(ex.Row)[3*b0:]
		for t := 0; t < n; t++ {
			tr := &out[e*stride+t]
			for j := 0; j < 3; j++ {
				tr[j] = p.head[j*tp+t] + ex.HeadB[j] + byp[3*t+j]
			}
		}
		if each != nil {
			each(e, cat, tp)
		}
	}
}

// Head is one expert of a head fit (Workspace.FitHeads): its name and chunk
// order's generator, its trajectory's row of the slab, the attention weights
// α and head V = (W, b) that the fit trains, and its scaled target series.
type Head struct {
	Name        string
	Rng         *rand.Rand
	Row         int
	Alpha, W, B *ad.Param
	Target      []float64
}

// headFit is FitHeads' state: the fit's operands, the step in progress and
// its buffers, kept in the workspace from panel to panel.
type headFit struct {
	s     *Slab
	q     []float64
	heads []Head

	b0      int       // the block being stepped
	loss    []float64 // Train's
	group   []int     // the runs on that block
	experts []PanelExpert
	grads   [][]float64
	selves  []int
	attn    []float64 // the group's attention rows
	ys      [][3]float64
	delta   []float64 // one expert's output gradients
	dctx    []float64 // the group's context gradients, a hidden×n block each
	dots    []float64
	pass    Pass
}

// FitHeads is phase B of a panel of experts: it fits each head's α and V over
// the frozen trajectories and bypass outputs of s, in lockstep (Train with
// c.Fit, the chunks s's blocks), with no tape. At every step the heads on one
// chunk go together: Pass.Outputs forms their contexts in one product and
// their outputs; each one's pinball loss against q, its output, bias and
// weight gradients and its contexts' gradient are formed in closed form; and
// one pass over the chunk's trajectories (ad.AttentionGrads) forms all their
// α gradients. Every float operation is the one the tape's
// WeightedSumConst/Column/Concat/Dense/Add/Pinball/SumScalars/ScaleConst
// chain performs, in its order — so every loss and weight has the tape's
// bits — where the windows of a chunk reach a gradient in the order Backward
// visits them, the last window first.
func (ws *Workspace) FitHeads(s *Slab, q []float64, heads []Head, c Chunks) error {
	f := &ws.heads
	f.s, f.q, f.heads = s, q, heads
	runs := make([]Run, len(heads))
	for i, h := range heads {
		// Params in the order ClipGradNorm sums them: V, then α.
		runs[i] = Run{Name: h.Name, Params: []*ad.Param{h.W, h.B, h.Alpha}, Rng: h.Rng}
	}
	c.Windows, c.Len, c.Loss, c.Fit = s.Steps, s.BlockLen, nil, f.fit
	return ws.Train(runs, c)
}

// fit steps every run from its chunk, the runs that share one together.
func (f *headFit) fit(from []int, loss []float64) {
	f.loss = loss
	for r, b0 := range from {
		if slices.Index(from, b0) < r {
			continue // stepped with an earlier run
		}
		f.group = f.group[:0]
		for r2 := r; r2 < len(from); r2++ {
			if from[r2] == b0 {
				f.group = append(f.group, r2)
			}
		}
		f.step(b0)
	}
}

// step forms the losses and gradients of the group's heads over the block
// that starts at b0.
func (f *headFit) step(b0 int) {
	s := f.s
	P, hid := s.Experts, s.Hidden
	rows, n, stride := s.Block(b0)
	m := len(f.group)
	f.b0 = b0
	f.attn = Resize(f.attn, m*P)
	f.experts, f.grads, f.selves = f.experts[:0], f.grads[:0], f.selves[:0]
	for e, r := range f.group {
		h := &f.heads[r]
		ad.AttentionRow(f.attn[e*P:(e+1)*P], h.Alpha.Data, h.Row)
		f.experts = append(f.experts, PanelExpert{Row: h.Row, HeadW: h.W.Data, HeadB: h.B.Data})
		f.grads, f.selves = append(f.grads, h.Alpha.Grad), append(f.selves, h.Row)
	}
	f.ys = Resize(f.ys, m*n)
	f.dctx = Resize(f.dctx, m*hid*n)
	f.pass.Outputs(s, b0, f.experts, f.attn, f.ys, n, f.backward)
	f.dots = Resize(f.dots, m*P*n)
	ad.AttentionGrads(f.grads, f.selves, f.dctx, rows, stride, n, f.dots)
}

// backward is the rest of the group's e-th head once Outputs has formed its
// outputs over the block, a_t ∥ h_t in cat: its mean pinball loss; its output
// gradients δ; V's gradient, the bias's the windows' δ and W's each window's
// δ·(a_t ∥ h_t)ᵀ, added last window first to gradients that are zero when a
// step starts; and its contexts' gradient δᵀW over the context columns, into
// its block of dctx. The mat-vec adjoint skips a zero δ; adding its ±0
// products instead changes no bit of a sum that starts at +0 while the
// operands are finite, and a non-finite one makes the loss non-finite, which
// Train refuses.
func (f *headFit) backward(e int, cat []float64, tp int) {
	r := f.group[e]
	h := &f.heads[r]
	hid := f.s.Hidden
	n := min(f.s.BlockLen, f.s.Steps-f.b0)
	y, tgt := f.ys[e*n:][:n], h.Target[f.b0:][:n]
	sc := 1 / float64(n)
	f.delta = Resize(f.delta, 3*n)
	d := f.delta // δ_t[k] at k·n+t
	sum := 0.0
	for t := range y {
		l := 0.0
		for k, q := range f.q {
			if dy := tgt[t] - y[t][k]; dy >= 0 {
				l += q * dy
				d[k*n+t] = 0 - sc*q
			} else {
				l += (q - 1) * dy
				d[k*n+t] = 0 - sc*(q-1)
			}
		}
		sum += l
	}
	f.loss[r] = sc * sum

	cols := 2 * hid
	for k := range 3 {
		dk := d[k*n:][:n]
		g := h.B.Grad[k]
		for t := n - 1; t >= 0; t-- {
			g += dk[t]
		}
		h.B.Grad[k] = g
		// Four of W's columns at a time: four add chains, each in its order.
		wg := h.W.Grad[k*cols:][:cols]
		c := 0
		for ; c+4 <= cols; c += 4 {
			g0, g1, g2, g3 := wg[c], wg[c+1], wg[c+2], wg[c+3]
			x0, x1, x2, x3 := cat[c*tp:][:n], cat[(c+1)*tp:][:n], cat[(c+2)*tp:][:n], cat[(c+3)*tp:][:n]
			for t := n - 1; t >= 0; t-- {
				dt := dk[t]
				g0 += dt * x0[t]
				g1 += dt * x1[t]
				g2 += dt * x2[t]
				g3 += dt * x3[t]
			}
			wg[c], wg[c+1], wg[c+2], wg[c+3] = g0, g1, g2, g3
		}
		for ; c < cols; c++ {
			g, x := wg[c], cat[c*tp:][:n]
			for t := n - 1; t >= 0; t-- {
				g += dk[t] * x[t]
			}
			wg[c] = g
		}
	}
	d0, d1, d2 := d[:n], d[n:2*n], d[2*n:3*n]
	w, dctx := h.W.Data, f.dctx[e*hid*n:]
	for j := range hid {
		w0, w1, w2, dj := w[j], w[cols+j], w[2*cols+j], dctx[j*n:][:n]
		for t := range dj {
			g := 0.0
			g += d0[t] * w0
			g += d1[t] * w1
			g += d2[t] * w2
			dj[t] = g
		}
	}
}
