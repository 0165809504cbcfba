// Package layers provides the neural building blocks of the DeepRest
// estimator: the learnable API-aware input mask, the GRU recurrent cell
// (paper Equation 2), a fully connected layer, and the cross-component
// attention weights (paper Equation 3); the one off-tape trajectory
// (GRUBlock.Trajectory) and the Slab it writes; and the training machinery
// every recurrent model here shares (train.go): the per-worker Workspace,
// the ForEach fan-out and the truncated-BPTT chunk loop, Workspace.Train.
package layers

import (
	"math/rand"

	"repro/internal/nn/ad"
)

// Dense is a fully connected layer y = W·x + b.
type Dense struct {
	// In and Out are the layer dimensions.
	In, Out int
	// W and B are the trainable weight matrix and bias.
	W, B *ad.Param
}

// NewDense returns a Glorot-initialised dense layer.
func NewDense(name string, in, out int, rng *rand.Rand) *Dense {
	return &Dense{
		In: in, Out: out,
		W: ad.NewParamInit(name+".W", out, in, rng),
		B: ad.NewParam(name+".b", out, 1),
	}
}

// Params returns the trainable parameters.
func (d *Dense) Params() []*ad.Param { return []*ad.Param{d.W, d.B} }

// Apply computes W·x + b on the tape.
func (d *Dense) Apply(t *ad.Tape, x *ad.Value) *ad.Value {
	return t.Add(t.MatVec(t.Use(d.W), x), t.Use(d.B))
}

// APIMask is the paper's learnable API-aware mask m (Equation 1): the input
// feature vector is gated element-wise by σ(m), letting each expert discover
// which invocation paths are relevant to the resource it estimates. The
// learned σ(m) is also the interpretability artifact behind Figure 22. A mask
// starts at zero, every feature half-open (σ(0) = 0.5).
type APIMask struct {
	// M is the raw (pre-sigmoid) mask parameter.
	M *ad.Param
}

// Params returns the trainable parameters.
func (m *APIMask) Params() []*ad.Param { return []*ad.Param{m.M} }

// Apply computes x̃ = σ(m) ⊙ x on the tape.
func (m *APIMask) Apply(t *ad.Tape, x *ad.Value) *ad.Value {
	return t.Mul(t.Sigmoid(t.Use(m.M)), x)
}

// Weights returns the current σ(m) values — how strongly each feature is
// admitted. Values near 1 mark invocation paths the expert relies on.
func (m *APIMask) Weights() []float64 {
	out := make([]float64, len(m.M.Data))
	for i, x := range m.M.Data {
		out[i] = ad.Logistic(x)
	}
	return out
}

// GRUCell is a gated recurrent unit cell with the paper's parameterisation
// (Equation 2): update gate z, reset gate k, candidate h̃, and the convex
// blend h_t = z ⊙ h_{t−1} + (1 − z) ⊙ h̃.
type GRUCell struct {
	// In and Hidden are the input and state dimensions.
	In, Hidden int
	// Gate parameters: W· act on the input, U· on the previous state,
	// B· are biases. The embedded bundle is what the fused tape op
	// (ad.GRUStepAt) and the tape-free step (GRUParams.Step) both read.
	ad.GRUParams
}

// NewGRUCell returns a Glorot-initialised GRU cell.
func NewGRUCell(name string, in, hidden int, rng *rand.Rand) *GRUCell {
	return &GRUCell{In: in, Hidden: hidden, GRUParams: ad.GRUParams{
		Wz: ad.NewParamInit(name+".Wz", hidden, in, rng),
		Uz: ad.NewParamInit(name+".Uz", hidden, hidden, rng),
		Bz: ad.NewParam(name+".bz", hidden, 1),
		Wk: ad.NewParamInit(name+".Wk", hidden, in, rng),
		Uk: ad.NewParamInit(name+".Uk", hidden, hidden, rng),
		Bk: ad.NewParam(name+".bk", hidden, 1),
		Wh: ad.NewParamInit(name+".Wh", hidden, in, rng),
		Uh: ad.NewParamInit(name+".Uh", hidden, hidden, rng),
		Bh: ad.NewParam(name+".bh", hidden, 1),
	}}
}

// GRUCellOf returns the cell over nine existing parameters, in Params
// order — how a deserialised cell adopts its decoded weights. The caller has
// checked their shapes: W· hidden×in, U· hidden×hidden, B· hidden×1.
func GRUCellOf(in, hidden int, p []*ad.Param) *GRUCell {
	return &GRUCell{In: in, Hidden: hidden, GRUParams: ad.GRUParams{
		Wz: p[0], Uz: p[1], Bz: p[2],
		Wk: p[3], Uk: p[4], Bk: p[5],
		Wh: p[6], Uh: p[7], Bh: p[8],
	}}
}

// Params returns the trainable parameters.
func (g *GRUCell) Params() []*ad.Param {
	return []*ad.Param{g.Wz, g.Uz, g.Bz, g.Wk, g.Uk, g.Bk, g.Wh, g.Uh, g.Bh}
}

// GRUBlock holds a GRU trajectory's step operands, on the tape (Form, Step)
// or off it (Trajectory): the input products of a block of its windows
// (ad.GRUParams.InputProducts) and U's panels, which the caller Resets at the
// trajectory's start and after each optimizer step.
type GRUBlock struct {
	xT, gate, wx, gs, prod, h []float64
	tp                        int // the block's length padded to WindowDots' lanes
	Panels                    ad.Panels
}

// BlockWindows is how many windows an off-tape trajectory outside training
// forms operands for at a time, the engine's and the tape oracle's alike: a
// series is cut into blocks of this many, so a running task's operands stay
// L2-sized however long a series a caller posts. Any length gives the same
// bits (TestFrozenPassesMatchTape).
const BlockWindows = 48

// Lanes rounds a count up to ad.WindowDots' four lanes.
func Lanes(n int) int { return (n + 3) &^ 3 }

// Resize returns s resliced to length n, reallocating only when its capacity
// is short.
func Resize[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// Gate returns σ(m) of mask, as APIMask.Apply gates, in b's buffer, or
// nothing when mask is nil; the next Gate or Form overwrites it.
func (b *GRUBlock) Gate(mask *APIMask) []float64 {
	b.gate = b.gate[:0]
	if mask != nil {
		for _, m := range mask.M.Data {
			b.gate = append(b.gate, ad.Logistic(m))
		}
	}
	return b.gate
}

// Form forms g's input products for the block of windows rows under its
// current weights, each window gated by σ(m) first when mask is not nil, as
// APIMask.Apply gates it. The weights must not change before the block's
// last Step. It returns the gated block the products read, as WindowDots
// reads a series (feature k of window t at k*tp+t, tp = len/g.In, the
// padding zero), which the next Form overwrites.
func (b *GRUBlock) Form(g *GRUCell, mask *APIMask, rows [][]float64) []float64 {
	b.tp = Lanes(len(rows))
	b.xT = Resize(b.xT, g.In*b.tp)
	b.wx = Resize(b.wx, 3*g.Hidden*b.tp)
	clear(b.xT)
	for t, row := range rows {
		for k, v := range row[:g.In] {
			b.xT[k*b.tp+t] = v
		}
	}
	return g.InputProducts(b.wx, b.xT, b.xT, b.Gate(mask), b.tp)
}

// Step records g's step on t for window col of the block from x, the tape's
// copy of that window's (gated) input, and hPrev, and returns h_t. It
// records a single fused tape op; StepReference is the equivalent
// primitive-op chain.
func (b *GRUBlock) Step(t *ad.Tape, g *GRUCell, col int, x, hPrev *ad.Value) *ad.Value {
	return t.GRUStepAt(&g.GRUParams, x, hPrev, b.wx, b.tp, col, &b.Panels)
}

// Trajectory is the one off-tape trajectory: it writes the states of g over
// s's series from a zero state into row i of s, and, when bypass is not nil,
// the bypass output S·x̃ + b. Per block of s it gates the block's input by
// gate (σ(m); empty when the mask is off) once, forms the three gates' input
// products and the bypass products over it, one ad.WindowDots pass each, and
// runs the block's steps with ad.GRUParams.Step, which touches only U: the
// first step packs U into b's panels, later ones read them. Form and Step on
// a tape give the same bits, window by window, at any block length.
func (b *GRUBlock) Trajectory(s *Slab, i int, g *GRUCell, gate []float64, bypass *Dense) {
	hid := g.Hidden
	b.h = Resize(b.h, 2*hid)
	b.gs = Resize(b.gs, 3*hid)
	hPrev, hNext := b.h[:hid], b.h[hid:]
	clear(hPrev)
	b.Panels.Reset(hid)
	for b0 := 0; b0 < s.Steps; b0 += s.BlockLen {
		x, n, tp := s.input(b0)
		b.xT = Resize(b.xT, g.In*tp)
		b.wx = Resize(b.wx, 3*hid*tp)
		in := g.InputProducts(b.wx, b.xT, x, gate, tp)
		if bypass != nil {
			b.prod = Resize(b.prod, 3*tp)
			ad.WindowDots(b.prod, bypass.W.Data, in, 3, g.In, tp)
			out := s.Bypass(i)[3*b0:]
			for t := 0; t < n; t++ {
				for j, bj := range bypass.B.Data {
					out[3*t+j] = b.prod[j*tp+t] + bj
				}
			}
		}
		rows, _, stride := s.Block(b0)
		row := rows[i*stride:][:stride]
		clear(row[n*hid:])
		for t := 0; t < n; t++ {
			g.GRUParams.Step(b.wx, tp, t, hPrev, hNext, b.gs, &b.Panels)
			for j, v := range hNext {
				row[j*n+t] = v
			}
			hPrev, hNext = hNext, hPrev
		}
	}
}

// Slab is a scaled input series, transposed once, and the off-tape
// trajectories of several GRUs of one shape over it, each its hidden states
// and its bypass output. The series is cut into blocks of BlockLen windows,
// the last one shorter. A block of n windows holds its input as In rows of
// Lanes(n) floats — feature k of window t at k·Lanes(n)+t, as WindowDots
// reads it — and each trajectory's states as one row of Lanes(Hidden·n)
// floats, window-minor — unit j of window t at j·n+t — the rows in order,
// every padding lane zero: the layout ad.Tape.WeightedSumConst and the
// engine's attention product read. A bypass output is three floats a window.
// Reset sets the fields.
type Slab struct {
	Experts, Steps, In, Hidden, BlockLen int
	x, states, bypass                    []float64
}

// Reset shapes s for experts trajectories hidden units wide over a series of
// steps windows of in features, in blocks of blockLen windows, reusing its
// buffers, and zeroes the input.
func (s *Slab) Reset(experts, steps, in, hidden, blockLen int) {
	s.Experts, s.Steps, s.In, s.Hidden, s.BlockLen = experts, steps, in, hidden, blockLen
	full, rest := steps/blockLen, steps%blockLen
	s.x = Resize(s.x, full*in*Lanes(blockLen)+in*Lanes(rest))
	clear(s.x)
	s.states = Resize(s.states, full*experts*Lanes(hidden*blockLen)+experts*Lanes(hidden*rest))
	s.bypass = Resize(s.bypass, 3*experts*steps)
}

// input returns the input of the block of windows that starts at b0, a
// multiple of BlockLen, its window count and its padded length.
func (s *Slab) input(b0 int) (x []float64, n, tp int) {
	n = min(s.BlockLen, s.Steps-b0)
	tp = Lanes(n)
	return s.x[b0/s.BlockLen*s.In*Lanes(s.BlockLen):][:s.In*tp], n, tp
}

// Window returns where window t's input goes: feature k at col[k*stride].
func (s *Slab) Window(t int) (col []float64, stride int) {
	x, _, tp := s.input(t - t%s.BlockLen)
	return x[t%s.BlockLen:], tp
}

// Block returns the trajectories' rows of the block of windows that starts
// at b0, a multiple of BlockLen — row i at i·stride — its window count and
// the row stride.
func (s *Slab) Block(b0 int) (rows []float64, n, stride int) {
	n = min(s.BlockLen, s.Steps-b0)
	stride = Lanes(s.Hidden * n)
	return s.states[b0/s.BlockLen*s.Experts*Lanes(s.Hidden*s.BlockLen):][:s.Experts*stride], n, stride
}

// State gathers trajectory i's state at window t into h.
func (s *Slab) State(h []float64, i, t int) {
	rows, n, stride := s.Block(t - t%s.BlockLen)
	Column(h, rows[i*stride:], n, t%s.BlockLen)
}

// Bypass returns trajectory i's bypass output, three floats a window.
func (s *Slab) Bypass(i int) []float64 { return s.bypass[3*i*s.Steps:][:3*s.Steps] }

// Column gathers window t of a window-minor block of n windows into dst.
func Column(dst, block []float64, n, t int) {
	for j := range dst {
		dst[j] = block[j*n+t]
	}
}

// StepReference is the original composition of a step (GRUBlock.Step) from
// primitive tape ops. It computes the same mathematics node by node and exists as
// the readable specification the fused kernel is tested against
// (bit-identical values and gradients).
func (g *GRUCell) StepReference(t *ad.Tape, x, hPrev *ad.Value) *ad.Value {
	z := t.Sigmoid(t.Add(t.Add(t.MatVec(t.Use(g.Wz), x), t.MatVec(t.Use(g.Uz), hPrev)), t.Use(g.Bz)))
	k := t.Sigmoid(t.Add(t.Add(t.MatVec(t.Use(g.Wk), x), t.MatVec(t.Use(g.Uk), hPrev)), t.Use(g.Bk)))
	cand := t.Tanh(t.Add(t.Add(t.MatVec(t.Use(g.Wh), x), t.MatVec(t.Use(g.Uh), t.Mul(k, hPrev))), t.Use(g.Bh)))
	return t.Add(t.Mul(z, hPrev), t.Mul(t.OneMinus(z), cand))
}

// FlatParams concatenates all recurrent parameters into one vector — the
// representation projected by PCA in the paper's Figure 21 to show that
// experts for similar components (e.g. the MongoDBs) learn to
// remember/forget in similar ways.
func (g *GRUCell) FlatParams() []float64 {
	var out []float64
	for _, p := range g.Params() {
		out = append(out, p.Data...)
	}
	return out
}

// Attention holds the trainable cross-component attention weights α of the
// paper's Equation 3: one scalar per peer expert, controlling how much of
// that peer's hidden state is blended into this expert's context vector. The
// weights start at zero ("listen to nobody"), which training adjusts.
type Attention struct {
	// Alpha is the K-vector of peer weights.
	Alpha *ad.Param
	// Peers names the peer experts, aligned with Alpha.
	Peers []string
}

// Params returns the trainable parameters.
func (a *Attention) Params() []*ad.Param { return []*ad.Param{a.Alpha} }

// Apply computes expert self's context vectors a_t = Σ_k α_k · h_t^{(k)} over
// the other experts' (detached) hidden states for a block of windows: expert
// k's states are the hidden×windows block of base that starts at k*stride,
// window-minor, base holding every expert's, self's included (see
// ad.Tape.WeightedSumConst).
func (a *Attention) Apply(t *ad.Tape, self int, base []float64, stride, hidden, windows int) *ad.Value {
	return t.WeightedSumConst(t.Use(a.Alpha), self, base, stride, hidden, windows)
}
