// Package estimator implements DeepRest's API-aware deep resource estimator
// (paper §4.2–§4.3): a swarm of per-(component, resource) DNN experts, each
// a GRU with a learnable API-aware input mask, a cross-component attention
// mechanism over the other experts' hidden states, and a quantile-regression
// head that outputs the expected utilization together with the lower and
// upper limits of a δ-confidence interval.
package estimator

import (
	"fmt"
	"math/rand"

	"repro/internal/app"
	"repro/internal/nn/ad"
	"repro/internal/nn/layers"
	"repro/internal/trace"
)

// Expert is the dedicated estimator F^{c,r} for one resource r of one
// component c.
type Expert struct {
	// Pair identifies the estimation target.
	Pair app.Pair
	// Component is Pair.Component as the feature paths spell it: the name
	// itself, or its trace.Hasher token in a model learned from anonymized
	// telemetry, whose pairs keep their real names.
	Component string
	// Inputs lists, ascending, the features the expert reads: the
	// invocation paths that visit its component (visits). It is derived
	// from the feature space and Component, when the expert is built and
	// when it is loaded, and never stored.
	Inputs []int
	// InDim is the number of inputs, len(Inputs); Hidden the GRU width.
	InDim, Hidden int
	// Mask is the API-aware input mask (Equation 1) over the inputs.
	Mask *layers.APIMask
	// Cell is the recurrent core (Equation 2).
	Cell *layers.GRUCell
	// Attn holds the cross-component attention weights α (Equation 3).
	Attn *layers.Attention
	// Head is the fully connected output layer V applied to a_t ∥ h_t
	// (Equation 4), emitting (expected, lower, upper).
	Head *layers.Dense
	// Bypass is a linear skip connection from the masked input to the
	// output. The GRU's tanh-bounded hidden state cannot represent
	// utilizations beyond the training range, so without the bypass the
	// model could not extrapolate to the paper's "3× more users than
	// ever" queries; the bypass carries the (locally linear) traffic →
	// utilization component while the recurrent path models queuing,
	// caches, and temporal effects. Disable via Config.LinearBypass for
	// the ablation study.
	Bypass *layers.Dense
	// UseMask and UseAttention mirror the training configuration so a
	// loaded model predicts exactly as trained.
	UseMask, UseAttention, UseBypass bool
	// rate is the multiple of the learning rate the mask and the bypass's
	// W step at: the dense feature count over InDim (inputRate).
	rate float64
}

// allPaths, set, makes every expert read every feature: the dense model, the
// reference the restriction is held to. Only tests set it.
var allPaths bool

// visits lists, ascending, the features of paths whose path visits
// component c (trace.PathVisits). Every feature when allPaths is set. The
// list is never nil: an expert that no path visits reads nothing.
func visits(paths []string, c string) []int {
	out := []int{}
	for i, path := range paths {
		if allPaths || trace.PathVisits(path, c) {
			out = append(out, i)
		}
	}
	return out
}

// newExpert builds an expert for pair, whose component the feature paths
// spell component, reading the features inputs of a dense-wide space, with
// the given width and peers, its parameters carved from one allocation
// (expertShapes) and its matrices Glorot-initialised from rng in Params
// order: W· and S draw the dense matrices' values, at their fan-in, and keep
// the inputs' columns, so an expert draws what the all-paths expert draws.
func newExpert(pair app.Pair, component string, inputs []int, dense, hidden int, peers []string, cfg Config, rng *rand.Rand) *Expert {
	ps := ad.Carve(expertShapes(pair.String(), len(inputs), hidden, len(peers)))
	for _, j := range [...]int{1, 2, 4, 5, 7, 8, 11, 13} { // W·, U·, V, S
		switch j {
		case 1, 4, 7, 13: // over the inputs
			ps[j].InitGlorotCols(rng, dense, inputs)
		default:
			ps[j].InitGlorot(rng)
		}
	}
	return expertOf(pair, component, inputs, dense, hidden, peers, ps, cfg.UseMask, cfg.UseAttention, cfg.LinearBypass)
}

// inputRate is the multiple of the learning rate at which an expert reading
// in of dense features steps its mask and its bypass's W. Both act on the
// inputs linearly, and Adam moves each weight by about the learning rate a
// step, so a bypass output's step grows with the number of columns it
// reads: at dense/in the restricted expert's bypass moves as far a step as
// the all-paths expert's did. The GRU's input weights feed saturating gates
// and keep the base rate. 1 for an expert that reads every feature or none.
func inputRate(dense, in int) float64 {
	if in == 0 {
		return 1
	}
	return float64(dense) / float64(in)
}

// rates lists the learning-rate multiple of each of Params: rate for the
// mask and the bypass's W, 1 for the rest; nil when every one is 1.
func (e *Expert) rates() []float64 {
	if e.rate == 1 {
		return nil
	}
	params := e.Params()
	out := make([]float64, len(params))
	for i, p := range params {
		out[i] = 1
		if p == e.Mask.M || p == e.Bypass.W {
			out[i] = e.rate
		}
	}
	return out
}

// expertShapes lists the parameters of an expert named name, in Params
// order: the mask, the cell's three gates (W·, U·, b·), α, the head V and the
// bypass S.
func expertShapes(name string, in, hid, peers int) []ad.Shape {
	return []ad.Shape{
		{Name: name + ".mask", Rows: in, Cols: 1},
		{Name: name + ".Wz", Rows: hid, Cols: in}, {Name: name + ".Uz", Rows: hid, Cols: hid}, {Name: name + ".bz", Rows: hid, Cols: 1},
		{Name: name + ".Wk", Rows: hid, Cols: in}, {Name: name + ".Uk", Rows: hid, Cols: hid}, {Name: name + ".bk", Rows: hid, Cols: 1},
		{Name: name + ".Wh", Rows: hid, Cols: in}, {Name: name + ".Uh", Rows: hid, Cols: hid}, {Name: name + ".bh", Rows: hid, Cols: 1},
		{Name: name + ".alpha", Rows: peers, Cols: 1},
		{Name: name + ".V.W", Rows: 3, Cols: 2 * hid}, {Name: name + ".V.b", Rows: 3, Cols: 1},
		{Name: name + ".S.W", Rows: 3, Cols: in}, {Name: name + ".S.b", Rows: 3, Cols: 1},
	}
}

// expertOf assembles an expert reading inputs of dense features around its
// parameters ps, in expertShapes' order and shapes — how newExpert and Load
// build one.
func expertOf(pair app.Pair, component string, inputs []int, dense, hid int, peers []string, ps []*ad.Param, useMask, useAttention, useBypass bool) *Expert {
	in := len(inputs)
	return &Expert{
		Pair:         pair,
		Component:    component,
		Inputs:       inputs,
		InDim:        in,
		Hidden:       hid,
		Mask:         &layers.APIMask{M: ps[0]},
		Cell:         layers.GRUCellOf(in, hid, ps[1:10]),
		Attn:         &layers.Attention{Alpha: ps[10], Peers: peers},
		Head:         &layers.Dense{In: 2 * hid, Out: 3, W: ps[11], B: ps[12]},
		Bypass:       &layers.Dense{In: in, Out: 3, W: ps[13], B: ps[14]},
		UseMask:      useMask,
		UseAttention: useAttention,
		UseBypass:    useBypass,
		rate:         inputRate(dense, in),
	}
}

// Params returns every trainable parameter of the expert.
func (e *Expert) Params() []*ad.Param {
	var out []*ad.Param
	out = append(out, e.Mask.Params()...)
	out = append(out, e.Cell.Params()...)
	out = append(out, e.Attn.Params()...)
	out = append(out, e.Head.Params()...)
	out = append(out, e.Bypass.Params()...)
	return out
}

// NumParams returns the total scalar parameter count.
func (e *Expert) NumParams() int {
	n := 0
	for _, p := range e.Params() {
		n += p.Size()
	}
	return n
}

// maskedInput places the inputs of the window x on the tape and applies the
// API-aware mask.
func (e *Expert) maskedInput(t *ad.Tape, x []float64) *ad.Value {
	in := t.ConstAt(x, e.Inputs)
	if e.UseMask {
		return e.Mask.Apply(t, in)
	}
	return in
}

// mask returns e's API mask, nil when it is off.
func (e *Expert) mask() *layers.APIMask {
	if e.UseMask {
		return e.Mask
	}
	return nil
}

// step records e's GRU step on t for window col of the workspace's block,
// whose input is row, from state h, and returns the new state and the
// masked input.
func (e *Expert) step(ws *layers.Workspace, t *ad.Tape, row []float64, col int, h *ad.Value) (hNext, xt *ad.Value) {
	xt = e.maskedInput(t, row)
	return ws.Block.Step(t, e.Cell, col, xt, h), xt
}

// stepOutput computes the output triple at one time step from the masked
// input, the new hidden state, and the attention context.
func (e *Expert) stepOutput(t *ad.Tape, xt, h, attn *ad.Value) *ad.Value {
	out := e.Head.Apply(t, t.Concat(attn, h))
	if e.UseBypass {
		out = t.Add(out, e.Bypass.Apply(t, xt))
	}
	return out
}

// walk runs e's recurrence over a scaled feature series x from a zero state
// on the workspace's gradient-free tape, its operands formed a block of
// layers.BlockWindows windows at a time, and hands fn each window's index,
// new state and masked input. The tape is Reset every step; the state is
// carried in a buffer it does not own.
func (e *Expert) walk(ws *layers.Workspace, x [][]float64, fn func(i int, h, xt *ad.Value)) {
	t := ws.Eval
	hPrev := make([]float64, e.Hidden)
	ws.Block.Panels.Reset(e.Hidden)
	for i, row := range x {
		col := i % layers.BlockWindows
		if col == 0 {
			ws.Block.Form(e.Cell, e.Inputs, e.mask(), x[i:min(i+layers.BlockWindows, len(x))])
		}
		t.Reset()
		h, xt := e.step(ws, t, row, col, t.Const(hPrev))
		fn(i, h, xt)
		copy(hPrev, h.Data)
	}
}

// trajectory writes e's frozen trajectory over s's series into row i of s,
// and its bypass output when it uses one (layers.GRUBlock.Trajectory):
// walk's states and Dense.Apply's outputs, bit for bit.
func (e *Expert) trajectory(ws *layers.Workspace, s *layers.Slab, i int) {
	var bypass *layers.Dense
	if e.UseBypass {
		bypass = e.Bypass
	}
	ws.Block.Trajectory(s, i, e.Cell, e.Inputs, ws.Block.Gate(e.mask()), bypass)
}

// forward runs the full forward pass over a scaled feature series on the
// workspace's gradient-free tape and returns the (expected, lower, upper)
// triple per step, in scaled target units. The attention contexts are formed
// from peers — every expert's detached hidden states over the same series —
// a block of the slab's windows at a time, as phase B forms a chunk's; they
// are zero when peers is nil (the occlusion probes).
func (e *Expert) forward(ws *layers.Workspace, x [][]float64, peers *peerStates) ([][3]float64, error) {
	if peers != nil && peers.Steps != len(x) {
		return nil, fmt.Errorf("estimator: expert %s: %d peer-state steps for %d inputs", e.Pair, peers.Steps, len(x))
	}
	t := ws.Eval
	attn := make([]float64, e.Hidden) // a window's context; zero without peers
	var ctx []float64                 // the contexts of every block, each laid out as the op forms it
	if e.UseAttention && len(e.Attn.Peers) > 0 && peers != nil {
		ctx = make([]float64, len(x)*e.Hidden)
		for from := 0; from < len(x); from += peers.BlockLen {
			t.Reset()
			copy(ctx[from*e.Hidden:], peers.attend(t, e.Attn, from).Data)
		}
	}
	out := make([][3]float64, len(x))
	e.walk(ws, x, func(i int, h, xt *ad.Value) {
		if ctx != nil {
			from := i - i%peers.BlockLen
			layers.Column(attn, ctx[from*e.Hidden:], min(peers.BlockLen, len(x)-from), i-from)
		}
		y := e.stepOutput(t, xt, h, t.Const(attn))
		out[i] = [3]float64{y.Data[0], y.Data[1], y.Data[2]}
	})
	return out, nil
}
