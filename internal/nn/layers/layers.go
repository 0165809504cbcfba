// Package layers provides the neural building blocks of the DeepRest
// estimator: the learnable API-aware input mask, the GRU recurrent cell
// (paper Equation 2), a fully connected layer, and the cross-component
// attention weights (paper Equation 3); and the training machinery every
// recurrent model here shares (train.go): the per-worker Workspace, the
// ForEach fan-out and the truncated-BPTT chunk loop, Workspace.Train.
package layers

import (
	"math/rand"
	"slices"

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
// learned σ(m) is also the interpretability artifact behind Figure 22.
type APIMask struct {
	// M is the raw (pre-sigmoid) mask parameter.
	M *ad.Param
}

// NewAPIMask returns a mask over dim features, initialised at zero so every
// feature starts half-open (σ(0) = 0.5).
func NewAPIMask(name string, dim int) *APIMask {
	return &APIMask{M: ad.NewParam(name+".mask", dim, 1)}
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

// GRUBlock holds a GRU trajectory's step operands, on the tape (Step) or off
// it (Advance): the input products of a block of its windows
// (ad.GRUParams.InputProducts) and U's panels, which the caller Resets at the
// trajectory's start and after each optimizer step.
type GRUBlock struct {
	xT, gate, wx, gs []float64
	tp               int // the block's length padded to WindowDots' lanes
	Panels           ad.Panels
}

// Form forms g's input products for the block of windows rows under its
// current weights, each window gated by σ(m) first when mask is not nil, as
// APIMask.Apply gates it. The weights must not change before the block's
// last Step. It returns the gated block the products read, as WindowDots
// reads a series (feature k of window t at k*tp+t, tp = len/g.In, the
// padding zero), which the next Form overwrites.
func (b *GRUBlock) Form(g *GRUCell, mask *APIMask, rows [][]float64) []float64 {
	b.tp = (len(rows) + 3) &^ 3
	b.xT = slices.Grow(b.xT[:0], g.In*b.tp)[:g.In*b.tp]
	b.wx = slices.Grow(b.wx[:0], 3*g.Hidden*b.tp)[:3*g.Hidden*b.tp]
	clear(b.xT)
	for t, row := range rows {
		for k, v := range row[:g.In] {
			b.xT[k*b.tp+t] = v
		}
	}
	b.gate = b.gate[:0]
	if mask != nil {
		for _, m := range mask.M.Data {
			b.gate = append(b.gate, ad.Logistic(m))
		}
	}
	return g.InputProducts(b.wx, b.xT, b.xT, b.gate, b.tp)
}

// Step records g's step on t for window col of the block from x, the tape's
// copy of that window's (gated) input, and hPrev, and returns h_t. It
// records a single fused tape op; StepReference is the equivalent
// primitive-op chain.
func (b *GRUBlock) Step(t *ad.Tape, g *GRUCell, col int, x, hPrev *ad.Value) *ad.Value {
	return t.GRUStepAt(&g.GRUParams, x, hPrev, b.wx, b.tp, col, &b.Panels)
}

// Advance is Step without a tape: g's step for window col of the block from
// hPrev into hOut, which must not alias it — the forward body Step records
// (ad.GRUParams.Step) on the same operands, so the states have its bits.
func (b *GRUBlock) Advance(g *GRUCell, col int, hPrev, hOut []float64) {
	b.gs = slices.Grow(b.gs[:0], 3*g.Hidden)[:3*g.Hidden]
	g.GRUParams.Step(b.wx, b.tp, col, hPrev, hOut, b.gs, &b.Panels)
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
// that peer's hidden state is blended into this expert's context vector.
type Attention struct {
	// Alpha is the K-vector of peer weights.
	Alpha *ad.Param
	// Peers names the peer experts, aligned with Alpha.
	Peers []string
}

// NewAttention returns zero-initialised attention over the named peers
// (zero weights mean "listen to nobody", which training adjusts).
func NewAttention(name string, peers []string) *Attention {
	return &Attention{
		Alpha: ad.NewParam(name+".alpha", len(peers), 1),
		Peers: append([]string(nil), peers...),
	}
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
