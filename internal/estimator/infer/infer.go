// Package infer is the serving-side inference engine: it indexes a trained
// estimator.Model's parameters as flat kernel operands and runs a
// closed-form forward pass — fused GRU recurrence, cross-component
// attention over its own hidden trajectories, mask and bypass heads —
// without recording a single AD-tape node.
//
// The engine exists because serving replayed training machinery: every
// /v1/estimate walked each expert through the gradient-capable tape,
// rebuilding node, hidden-state, and peer buffers per request (~1.9 ms and
// ~1,300 allocations per predict at toy scale). Here the parameters are
// read in place — the kernels' slices are the model's Param.Data, a
// published generation holds its weights once — all per-call state lives
// in sync.Pool-recycled scratch, and expert passes fan out over a shared
// bounded worker Pool — a warm predict is near-zero-alloc and orders of
// magnitude faster. What the engine derives and owns is small: every
// expert's σ(m) gate, in one slab, and the attention matrix, the size of the
// peer-index table it replaces.
//
// Correctness contract: the engine performs the same float64 operations in
// the same order as the eval-tape oracle (Model.PredictVectors): its
// trajectories are the one off-tape pass the oracle's peer states and phase
// B's frozen states run (layers.GRUBlock.Trajectory), its attention contexts
// and head go through ad.WindowDots, which sums as the tape's MatVec, and its
// epilogue is the shared TargetScale.DescaleInto, so its output is
// bit-identical to the tape's (absent FMA contraction). An Engine is
// immutable after Compile and safe for concurrent use because the model it
// reads is (see estimator.Model); each model generation compiles its own
// engine, so a served prediction can never mix parameters from two
// generations.
package infer

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/app"
	"repro/internal/estimator"
	"repro/internal/features"
	"repro/internal/nn/ad"
	"repro/internal/nn/layers"
)

// Engine is the compiled, read-only view of one trained model.
type Engine struct {
	pairs     []app.Pair
	dim       int // feature-space dimensionality
	hidden    int // GRU width, uniform across experts
	scalerMax []float64
	experts   []expertView
	// heads are the experts' pass-two operands, in expert order: a head
	// attends when its row of attn is formed; otherwise its context stays +0.
	heads []layers.PanelExpert
	// attn is the P×P attention matrix: row i holds expert i's α at its
	// peers' columns and +0 everywhere else, its own column included; nil
	// when no expert attends.
	attn []float64

	pool    *Pool
	scratch sync.Pool // *predictScratch
	// work is a free list of trajectory work areas, twice GOMAXPROCS deep:
	// more tasks than that are runnable only when requests overlap, and
	// they allocate their own. A channel rather than a sync.Pool, which
	// forgets at random under the race detector — one Get per task would
	// make a warm predict's allocations a matter of luck there.
	work chan *workArea
}

// expertView is one expert's kernel operands: all but mask are the expert's
// own layers or the Data of its Params.
type expertView struct {
	mask   []float64 // σ(m) gate, dim floats of one engine-owned slab; nil when the mask is off
	cell   *layers.GRUCell
	bypass *layers.Dense // nil when the bypass is off
	scale  estimator.TargetScale
}

// predictScratch is the per-call mutable state, recycled through
// Engine.scratch. Slices grow to the largest series seen and are reused.
type predictScratch struct {
	slab    layers.Slab  // the scaled input and every expert's trajectory, in blocks of layers.BlockWindows
	triples [][3]float64 // P×T scaled output triples
}

// workArea is what one running task needs beyond the request's scratch; it
// comes from Engine.work, so there are as many as tasks in flight, not as
// experts. A trajectory task uses its block's operands, a pass-two task its
// pass's.
type workArea struct {
	block layers.GRUBlock
	pass  layers.Pass
}

// getWork takes a work area off the free list, or makes one; putWork returns
// it, or drops it when the list is full.
func (e *Engine) getWork() *workArea {
	select {
	case wa := <-e.work:
		return wa
	default:
		return new(workArea)
	}
}

func (e *Engine) putWork(wa *workArea) {
	select {
	case e.work <- wa:
	default:
	}
}

// Compile builds the engine over m, which must not change afterwards. It
// fails when the model's shape is not the uniform architecture the kernels
// assume — e.g. hand-assembled experts with mismatched dimensions, or
// attention peers that are not every other pair in Model.Pairs order, the
// order the product adds them in — which estimator.TrainWarm and Load output
// never is.
func Compile(m *estimator.Model) (*Engine, error) {
	if m == nil || len(m.Pairs) == 0 {
		return nil, fmt.Errorf("infer: no trained experts to compile")
	}
	if m.Space == nil || m.FeatScaler == nil {
		return nil, fmt.Errorf("infer: model has no feature space or scaler")
	}
	dim := m.Space.Dim()
	if len(m.FeatScaler.Max) != dim {
		return nil, fmt.Errorf("infer: scaler covers %d of %d feature dims", len(m.FeatScaler.Max), dim)
	}
	P := len(m.Pairs)
	names := make([]string, P)
	for i, p := range m.Pairs {
		names[i] = p.String()
	}
	attnActive := m.Cfg.UseAttention && P > 1

	e := &Engine{
		pairs:     append([]app.Pair(nil), m.Pairs...),
		dim:       dim,
		scalerMax: append([]float64(nil), m.FeatScaler.Max...),
		experts:   make([]expertView, P),
		heads:     make([]layers.PanelExpert, P),
		pool:      SharedPool(),
		work:      make(chan *workArea, 2*runtime.GOMAXPROCS(0)),
	}
	e.scratch.New = func() any { return new(predictScratch) }

	// Per expert: check its shape, then point the kernels at its parameters.
	// Nothing is copied — a compiled model is immutable, so there is nothing
	// to decouple from; only the σ(m) gates and the attention matrix are new
	// values.
	var masks []float64
	for i, p := range m.Pairs {
		ex := m.Experts[p]
		view := &e.experts[i]
		ts := m.TargetScales[p]
		if ex == nil || ts == nil {
			return nil, fmt.Errorf("infer: %s: missing expert or target scale", p)
		}
		if ex.InDim != dim || ex.Cell == nil || ex.Cell.In != dim {
			return nil, fmt.Errorf("infer: %s: input dim mismatch", p)
		}
		if i == 0 {
			e.hidden = ex.Hidden
		}
		if ex.Hidden != e.hidden || ex.Cell.Hidden != e.hidden || e.hidden <= 0 {
			return nil, fmt.Errorf("infer: %s: non-uniform hidden width", p)
		}
		if ex.Head == nil || ex.Head.In != 2*e.hidden || ex.Head.Out != 3 {
			return nil, fmt.Errorf("infer: %s: unexpected head shape", p)
		}
		if ex.UseMask {
			if ex.Mask == nil || len(ex.Mask.M.Data) != dim {
				return nil, fmt.Errorf("infer: %s: unexpected mask shape", p)
			}
			if masks == nil {
				masks = make([]float64, P*dim)
			}
			view.mask = masks[i*dim : (i+1)*dim : (i+1)*dim]
			for j, v := range ex.Mask.M.Data {
				// The tape recomputes σ(m) every step; the values are
				// identical, so computing the gate once is bit-safe.
				view.mask[j] = ad.Logistic(v)
			}
		}
		if ex.UseBypass {
			if ex.Bypass == nil || ex.Bypass.In != dim || ex.Bypass.Out != 3 {
				return nil, fmt.Errorf("infer: %s: unexpected bypass shape", p)
			}
			view.bypass = ex.Bypass
		}
		view.scale = *ts
		view.cell = ex.Cell
		e.heads[i] = layers.PanelExpert{Row: i, HeadW: ex.Head.W.Data, HeadB: ex.Head.B.Data, Bypass: ex.UseBypass}
		if attnActive && ex.UseAttention {
			if ex.Attn == nil || len(ex.Attn.Peers) != P-1 || len(ex.Attn.Alpha.Data) != P-1 {
				return nil, fmt.Errorf("infer: %s: attention weights are not one per other pair", p)
			}
			// The product adds every column in ascending order, +0·h_i for
			// its own: the tape's sum only when the peers are every other
			// pair, in order.
			for k, peer := range ex.Attn.Peers {
				j := k
				if k >= i {
					j++
				}
				if peer != names[j] {
					return nil, fmt.Errorf("infer: %s: attention peer %d is %q, want %q (every other pair, in order)", p, k, peer, names[j])
				}
			}
			if e.attn == nil {
				e.attn = make([]float64, P*P)
			}
			ad.AttentionRow(e.attn[i*P:(i+1)*P], ex.Attn.Alpha.Data, i)
			e.heads[i].Attends = true
		}
	}
	return e, nil
}

// SetPool overrides the worker pool (nil runs expert passes inline). Call
// before the engine starts serving; benches and tests use it to pin
// parallelism.
func (e *Engine) SetPool(p *Pool) { e.pool = p }

func (e *Engine) getScratch(T int) *predictScratch {
	sc := e.scratch.Get().(*predictScratch)
	P := len(e.experts)
	sc.slab.Reset(P, T, e.dim, e.hidden, layers.BlockWindows)
	sc.triples = layers.Resize(sc.triples, P*T)
	return sc
}

// scaleInput normalises the feature series with the snapshot's per-dimension
// maxima — the same v / max[j] the tape path applies — into the slab's input,
// where every expert's input products read it. A non-finite feature is
// refused: it would turn every estimate it reaches into NaN.
func (e *Engine) scaleInput(series []features.Vector, sc *predictScratch) error {
	for t, v := range series {
		if len(v.Counts) != e.dim {
			return fmt.Errorf("infer: window %d has %d features for a %d-dim space", t, len(v.Counts), e.dim)
		}
		col, stride := sc.slab.Window(t)
		for k, c := range v.Counts {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return fmt.Errorf("infer: window %d: feature %d is %v", t, k, c)
			}
			col[k*stride] = c / e.scalerMax[k]
		}
	}
	return nil
}

// trajectory computes expert i's hidden trajectory and bypass output into
// its rows of the slab (layers.GRUBlock.Trajectory, on the work area's
// operands), as phase B computes its frozen states.
func (e *Engine) trajectory(i int, sc *predictScratch) {
	ex := &e.experts[i]
	wa := e.getWork()
	defer e.putWork(wa)
	wa.block.Trajectory(&sc.slab, i, ex.cell, ex.mask, ex.bypass)
}

// panels is how many pass-two tasks a series takes.
func (e *Engine) panels() int {
	return (len(e.experts) + layers.PanelExperts - 1) / layers.PanelExperts
}

// outputs computes the scaled output triples of panel k's experts from the
// slab, a block of windows at a time, with layers.Pass.Outputs — the pass
// phase B fits the heads with.
func (e *Engine) outputs(k, T int, sc *predictScratch) {
	P := len(e.experts)
	i0, i1 := k*layers.PanelExperts, min((k+1)*layers.PanelExperts, P)
	wa := e.getWork()
	defer e.putWork(wa)
	var attn []float64
	if e.attn != nil {
		attn = e.attn[i0*P:]
	}
	for b0 := 0; b0 < T; b0 += sc.slab.BlockLen {
		wa.pass.Outputs(&sc.slab, b0, e.heads[i0:i1], attn, sc.triples[i0*T+b0:], T, nil)
	}
}

// Predict estimates the utilization of every pair for the given feature
// series, in raw resource units — the tape-free equivalent of
// Model.PredictVectors.
func (e *Engine) Predict(series []features.Vector) (map[app.Pair]estimator.Estimate, error) {
	out := make(map[app.Pair]estimator.Estimate, len(e.pairs))
	if err := e.PredictInto(series, out); err != nil {
		return nil, err
	}
	return out, nil
}

// PredictInto is Predict writing into a caller-owned map: existing entries'
// slices are reused when their capacity suffices, so a warm caller that
// keeps its map between calls allocates (almost) nothing.
func (e *Engine) PredictInto(series []features.Vector, out map[app.Pair]estimator.Estimate) error {
	T := len(series)
	sc := e.getScratch(T)
	defer e.scratch.Put(sc)
	if err := e.scaleInput(series, sc); err != nil {
		return err
	}
	P := len(e.experts)
	e.pool.Run(P, func(i int) { e.trajectory(i, sc) })
	e.pool.Run(e.panels(), func(k int) { e.outputs(k, T, sc) })
	for i, p := range e.pairs {
		est := out[p]
		e.experts[i].scale.DescaleInto(sc.triples[i*T:(i+1)*T], &est)
		out[p] = est
	}
	return nil
}

// PredictBatch runs several independent feature series through the engine
// as one fanned pass: all (series, expert) tasks of the batch share one
// trip through the worker pool — two pool dispatches total instead of two
// per series. Each result is bit-identical to Predict on that series. The
// tasks share no weights, so a series costs no less inside a batch than
// alone; the caller is core.EstimateTrafficBatch (offline forecasts).
func (e *Engine) PredictBatch(batch [][]features.Vector) ([]map[app.Pair]estimator.Estimate, error) {
	B, P := len(batch), len(e.experts)
	if B == 0 {
		return nil, nil
	}
	scs := make([]*predictScratch, B)
	for b, series := range batch {
		scs[b] = e.getScratch(len(series))
		if err := e.scaleInput(series, scs[b]); err != nil {
			for _, sc := range scs[:b+1] {
				e.scratch.Put(sc)
			}
			return nil, err
		}
	}
	e.pool.Run(B*P, func(k int) { e.trajectory(k%P, scs[k/P]) })
	np := e.panels()
	e.pool.Run(B*np, func(k int) { e.outputs(k%np, len(batch[k/np]), scs[k/np]) })
	out := make([]map[app.Pair]estimator.Estimate, B)
	for b := range batch {
		T := len(batch[b])
		m := make(map[app.Pair]estimator.Estimate, P)
		for i, p := range e.pairs {
			var est estimator.Estimate
			e.experts[i].scale.DescaleInto(scs[b].triples[i*T:(i+1)*T], &est)
			m[p] = est
		}
		out[b] = m
		e.scratch.Put(scs[b])
	}
	return out, nil
}
