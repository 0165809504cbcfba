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
)

// Expert is the dedicated estimator F^{c,r} for one resource r of one
// component c.
type Expert struct {
	// Pair identifies the estimation target.
	Pair app.Pair
	// InDim is the feature-space dimensionality, Hidden the GRU width.
	InDim, Hidden int
	// Mask is the API-aware input mask (Equation 1).
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
}

// newExpert builds an expert for pair with the given dimensions and peers.
func newExpert(pair app.Pair, inDim, hidden int, peers []string, cfg Config, rng *rand.Rand) *Expert {
	name := pair.String()
	e := &Expert{
		Pair:   pair,
		InDim:  inDim,
		Hidden: hidden,
		Mask:   layers.NewAPIMask(name, inDim),
		Cell:   layers.NewGRUCell(name, inDim, hidden, rng),
		Attn:   layers.NewAttention(name, peers),
		Head:   layers.NewDense(name+".V", 2*hidden, 3, rng),
		Bypass: layers.NewDense(name+".S", inDim, 3, rng),

		UseMask:      cfg.UseMask,
		UseAttention: cfg.UseAttention,
		UseBypass:    cfg.LinearBypass,
	}
	ad.Pack(e.Params())
	return e
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

// maskedInput places x on the tape and applies the API-aware mask.
func (e *Expert) maskedInput(t *ad.Tape, x []float64) *ad.Value {
	in := t.Const(x)
	if e.UseMask {
		return e.Mask.Apply(t, in)
	}
	return in
}

// formBlock forms e's step operands in the workspace for the block of
// windows rows (layers.GRUBlock.Form, behind the mask when it is on).
func (e *Expert) formBlock(ws *workspace, rows [][]float64) {
	var mask *layers.APIMask
	if e.UseMask {
		mask = e.Mask
	}
	ws.blk.Form(e.Cell, mask, rows)
}

// step records e's GRU step on t for window col of the workspace's block,
// whose input is row, from state h, and returns the new state and the
// masked input.
func (e *Expert) step(ws *workspace, t *ad.Tape, row []float64, col int, h *ad.Value) (hNext, xt *ad.Value) {
	xt = e.maskedInput(t, row)
	return ws.blk.Step(t, e.Cell, col, xt, h), xt
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

// evalBlock is how many windows walk forms step operands for at a time. Any
// length gives the same bits; the default chunk's keeps one buffer size.
const evalBlock = 64

// walk runs e's recurrence over a scaled feature series x from a zero state
// on the workspace's gradient-free tape and hands fn each window's index,
// new state and masked input. The tape is Reset every step; the state is
// carried in a buffer it does not own.
func (e *Expert) walk(ws *workspace, x [][]float64, fn func(i int, h, xt *ad.Value)) {
	t := ws.eval
	hPrev := make([]float64, e.Hidden)
	ws.blk.Panels.Reset(e.Hidden)
	for i, row := range x {
		if i%evalBlock == 0 {
			e.formBlock(ws, x[i:min(i+evalBlock, len(x))])
		}
		t.Reset()
		h, xt := e.step(ws, t, row, i%evalBlock, t.Const(hPrev))
		fn(i, h, xt)
		copy(hPrev, h.Data)
	}
}

// hiddenInto writes e's trajectory over x, step-major, into dst
// (len(x)·Hidden floats): the detached peer states other experts attend
// over.
func (e *Expert) hiddenInto(ws *workspace, x [][]float64, dst []float64) {
	e.walk(ws, x, func(i int, h, _ *ad.Value) { copy(dst[i*e.Hidden:(i+1)*e.Hidden], h.Data) })
}

// forward runs the full forward pass over a scaled feature series on the
// workspace's gradient-free tape and returns the (expected, lower, upper)
// triple per step, in scaled target units. The attention context is drawn
// from peers — the detached hidden states of the peer experts over the same
// series — and is zero when peers is nil (the occlusion probes).
func (e *Expert) forward(ws *workspace, x [][]float64, peers *peerStates) ([][3]float64, error) {
	if peers != nil && peers.steps != len(x) {
		return nil, fmt.Errorf("estimator: expert %s: %d peer-state steps for %d inputs", e.Pair, peers.steps, len(x))
	}
	t := ws.eval
	zeroAttn := make([]float64, e.Hidden)
	out := make([][3]float64, len(x))
	e.walk(ws, x, func(i int, h, xt *ad.Value) {
		var attn *ad.Value
		if e.UseAttention && len(e.Attn.Peers) > 0 && peers != nil {
			attn = peers.attend(t, e.Attn, i)
		} else {
			attn = t.Const(zeroAttn)
		}
		y := e.stepOutput(t, xt, h, attn)
		out[i] = [3]float64{y.Data[0], y.Data[1], y.Data[2]}
	})
	return out, nil
}
