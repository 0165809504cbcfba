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
// magnitude faster.
//
// Correctness contract: the engine performs the same float64 operations in
// the same order as the eval-tape oracle (Model.PredictVectors), via
// the shared ad.Dot / ad.Logistic / ad.GRUParams.Step primitives — the input
// products W·x and S·x through ad.WindowDots, which sums each as ad.Dot does —
// and the shared TargetScale.DescaleInto epilogue, so its output is
// bit-identical to the tape's (absent FMA contraction). An Engine is
// immutable after Compile and safe for concurrent use because the model it
// reads is (see estimator.Model); each model generation compiles its own
// engine, so a served prediction can never mix parameters from two
// generations.
package infer

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/app"
	"repro/internal/estimator"
	"repro/internal/features"
	"repro/internal/nn/ad"
)

// Engine is the compiled, read-only view of one trained model.
type Engine struct {
	pairs      []app.Pair
	dim        int  // feature-space dimensionality
	hidden     int  // GRU width, uniform across experts
	attnActive bool // model-wide: attention trained and >1 expert
	scalerMax  []float64
	experts    []expertView

	pool    *Pool
	scratch sync.Pool // *predictScratch
	// work is a free list of trajectory work areas, twice GOMAXPROCS deep:
	// more tasks than that are runnable only when requests overlap, and
	// they allocate their own. A channel rather than a sync.Pool, which
	// forgets at random under the race detector — one Get per task would
	// make a warm predict's allocations a matter of luck there.
	work chan *workArea
}

// expertView is one expert's kernel operands. Every slice but mask is the
// Data of one of the expert's Params.
type expertView struct {
	mask    []float64 // σ(m) gate, derived and so engine-owned; nil when the mask is off
	gru     *ad.GRUParams
	alpha   []float64 // attention weights, aligned with peerIdx
	peerIdx []int     // peer expert indices in engine order
	headW   []float64 // 3 × 2·hidden
	headB   []float64 // 3
	bypW    []float64 // 3 × dim; nil when the bypass is off
	bypB    []float64 // 3
	scale   estimator.TargetScale
}

// predictScratch is the per-call mutable state, recycled through
// Engine.scratch. Slices grow to the largest series seen and are reused.
type predictScratch struct {
	xT      []float64    // scaled input, time-minor, a block of windows after another (see blockWindows)
	traj    []float64    // P×T×hidden hidden trajectories
	byp     []float64    // P×3×lanes(T) bypass products S·x, blocked like xT
	ws      []float64    // per-expert work areas (attention context, concat)
	zero    []float64    // hidden-sized all-zero h₀
	triples [][3]float64 // P×T scaled output triples
}

// blockWindows is how many windows' input products a trajectory forms at a
// time: a series is cut into blocks of this many windows (the last one
// shorter, and padded to the kernel's four lanes), so the work area of a
// running task stays L2-sized however long a series a caller posts. Every
// block before the one starting at window b0 is full, so in an array that
// holds r rows per block (xT: dim, byp: 3) that block starts r·b0 floats in.
const blockWindows = 48

// lanes rounds a window count up to ad.WindowDots' four lanes.
func lanes(n int) int { return (n + 3) &^ 3 }

// block returns the length of the block that starts at window b0 of a
// T-window series, and that length padded to the lanes.
func block(b0, T int) (n, tp int) {
	n = min(blockWindows, T-b0)
	return n, lanes(n)
}

// workArea is what one running trajectory task needs beyond the request's
// scratch; it comes from Engine.work, so there are as many as tasks in
// flight, not as experts.
type workArea struct {
	xm []float64 // dim × lanes: the block's input gated by the expert's mask
	wx []float64 // 3·hidden × lanes: Wz·x, Wk·x, Wh·x for the block
	gs []float64 // 3·hidden: the step's gate scratch
	up ad.Panels // 3·hidden²: the expert's U matrices, packed by its first step
}

// getWork takes a work area for a series of T windows off the free list, or
// makes one; putWork returns it, or drops it when the list is full.
func (e *Engine) getWork(T int) *workArea {
	var wa *workArea
	select {
	case wa = <-e.work:
	default:
		wa = new(workArea)
	}
	_, tp := block(0, T) // the widest block of the series
	wa.xm = growFloats(wa.xm, e.dim*tp)
	wa.wx = growFloats(wa.wx, 3*e.hidden*tp)
	wa.gs = growFloats(wa.gs, 3*e.hidden)
	wa.up.Reset(e.hidden)
	return wa
}

func (e *Engine) putWork(wa *workArea) {
	select {
	case e.work <- wa:
	default:
	}
}

// Compile builds the engine over m, which must not change afterwards. It
// fails when the model's shape is not the uniform architecture the kernels
// assume — e.g. hand-assembled experts with mismatched dimensions or
// unresolvable attention peers — which estimator.Train and Load output
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
	idx := make(map[string]int, len(m.Pairs))
	for i, p := range m.Pairs {
		idx[p.String()] = i
	}

	e := &Engine{
		pairs:      append([]app.Pair(nil), m.Pairs...),
		dim:        dim,
		attnActive: m.Cfg.UseAttention && len(m.Pairs) > 1,
		scalerMax:  append([]float64(nil), m.FeatScaler.Max...),
		experts:    make([]expertView, len(m.Pairs)),
		pool:       SharedPool(),
		work:       make(chan *workArea, 2*runtime.GOMAXPROCS(0)),
	}
	e.scratch.New = func() any { return new(predictScratch) }

	// Per expert: check its shape, then point the kernels at its parameters.
	// Nothing is copied — a compiled model is immutable, so there is nothing
	// to decouple from; only the σ(m) gate is a new value.
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
			view.mask = make([]float64, dim)
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
			view.bypW, view.bypB = ex.Bypass.W.Data, ex.Bypass.B.Data
		}
		view.scale = *ts
		view.gru = &ex.Cell.GRUParams
		view.headW, view.headB = ex.Head.W.Data, ex.Head.B.Data
		if e.attnActive && ex.UseAttention {
			if ex.Attn == nil || len(ex.Attn.Alpha.Data) != len(ex.Attn.Peers) {
				return nil, fmt.Errorf("infer: %s: attention weights misaligned with peers", p)
			}
			view.alpha = ex.Attn.Alpha.Data
			view.peerIdx = make([]int, len(ex.Attn.Peers))
			for k, peer := range ex.Attn.Peers {
				j, ok := idx[peer]
				if !ok || j == i {
					return nil, fmt.Errorf("infer: %s: unresolvable attention peer %q", p, peer)
				}
				view.peerIdx[k] = j
			}
		}
	}
	return e, nil
}

// SetPool overrides the worker pool (nil runs expert passes inline). Call
// before the engine starts serving; benches and tests use it to pin
// parallelism.
func (e *Engine) SetPool(p *Pool) { e.pool = p }

// wsLen is the per-expert work-area length: attention context and the
// a_t ∥ h_t concat buffer.
func (e *Engine) wsLen() int { return e.hidden + 2*e.hidden }

func (e *Engine) getScratch(T int) *predictScratch {
	sc := e.scratch.Get().(*predictScratch)
	P := len(e.experts)
	sc.xT = growFloats(sc.xT, e.dim*lanes(T))
	sc.traj = growFloats(sc.traj, P*T*e.hidden)
	sc.byp = growFloats(sc.byp, P*3*lanes(T))
	sc.ws = growFloats(sc.ws, P*e.wsLen())
	sc.zero = growFloats(sc.zero, e.hidden)
	clear(sc.zero)
	if cap(sc.triples) < P*T {
		sc.triples = make([][3]float64, P*T)
	} else {
		sc.triples = sc.triples[:P*T]
	}
	return sc
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// scaleInput normalises the feature series with the snapshot's per-dimension
// maxima — the same v / max[j] the tape path applies — into sc.xT, transposed:
// the block of windows starting at b0 holds feature k of window b0+t at
// b0·dim + k·tp + t, tp the block's length padded to the lanes, the padding
// zero. Every expert's input products read it as it lies.
func (e *Engine) scaleInput(series []features.Vector, sc *predictScratch) error {
	for b0 := 0; b0 < len(series); b0 += blockWindows {
		n, tp := block(b0, len(series))
		xb := sc.xT[b0*e.dim:][:e.dim*tp]
		for t, v := range series[b0 : b0+n] {
			if len(v.Counts) != e.dim {
				return fmt.Errorf("infer: window %d has %d features for a %d-dim space", b0+t, len(v.Counts), e.dim)
			}
			for k, c := range v.Counts {
				xb[k*tp+t] = c / e.scalerMax[k]
			}
		}
		for k := 0; n < tp && k < e.dim; k++ {
			clear(xb[k*tp+n : (k+1)*tp])
		}
	}
	return nil
}

// trajectory computes expert i's full hidden trajectory into sc.traj, and its
// bypass products into sc.byp. Nothing on the input side depends on the
// hidden state, so per block of windows the input is gated once and each of
// Wz, Wk, Wh and the bypass S is walked once, for all the block's windows
// (ad.WindowDots); the steps that follow touch only U. The first step
// packs U into the work area's panels as it reads it, and every later one,
// in this block or the next, reads the panels instead (ad.Panels). Each step
// writes out-of-place, so the previous step's row serves as h_{t−1} without
// copying — bit-identical to the tape's carried-buffer recurrence.
func (e *Engine) trajectory(i, T int, sc *predictScratch) {
	ex := &e.experts[i]
	dim, hid := e.dim, e.hidden
	wa := e.getWork(T)
	defer e.putWork(wa)
	hPrev := sc.zero
	for b0 := 0; b0 < T; b0 += blockWindows {
		n, tp := block(b0, T)
		// σ(m) ⊙ x and the three input products over it, as the tape forms them.
		in := ex.gru.InputProducts(wa.wx, wa.xm, sc.xT[b0*dim:][:dim*tp], ex.mask, tp)
		if ex.bypW != nil {
			ad.WindowDots(sc.byp[3*(i*lanes(T)+b0):], ex.bypW, in, 3, dim, tp)
		}
		for t := 0; t < n; t++ {
			hOut := sc.traj[(i*T+b0+t)*hid:][:hid]
			ex.gru.Step(wa.wx, tp, t, hPrev, hOut, wa.gs, &wa.up)
			hPrev = hOut
		}
	}
}

// outputs computes expert i's scaled output triples from the trajectories:
// attention context over peer hidden states, head over a_t ∥ h_t, plus the
// linear bypass product trajectory left in sc.byp — the same operation order
// as Expert.stepOutput.
func (e *Engine) outputs(i, T int, sc *predictScratch) {
	ex := &e.experts[i]
	hid := e.hidden
	ws := sc.ws[i*e.wsLen() : (i+1)*e.wsLen()]
	attn, cat := ws[:hid], ws[hid:]
	useAttn := e.attnActive && len(ex.peerIdx) > 0
	if !useAttn {
		clear(attn) // the context stays zero; the scratch is recycled
	}
	for t := 0; t < T; t++ {
		if useAttn {
			// Σ_k α_k · h_t^{(k)}, accumulated in peer order like the
			// tape's WeightedSumConst: peer k's state at t sits T·hid
			// floats per expert into the trajectories.
			ad.PeerSum(attn, ex.alpha, ex.peerIdx, sc.traj[t*hid:], T*hid)
		}
		copy(cat[:hid], attn)
		copy(cat[hid:], sc.traj[(i*T+t)*hid:(i*T+t+1)*hid])
		// Row j of the bypass product at window t, in the block starting at
		// b0, tp windows wide.
		b0 := t - t%blockWindows
		_, tp := block(b0, T)
		byp := sc.byp[3*(i*lanes(T)+b0)+t-b0:]
		tr := &sc.triples[i*T+t]
		for j := 0; j < 3; j++ {
			y := ad.Dot(ex.headW[j*2*hid:(j+1)*2*hid], cat) + ex.headB[j]
			if ex.bypW != nil {
				y += byp[j*tp] + ex.bypB[j]
			}
			tr[j] = y
		}
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
	e.pool.Run(P, func(i int) { e.trajectory(i, T, sc) })
	e.pool.Run(P, func(i int) { e.outputs(i, T, sc) })
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
	e.pool.Run(B*P, func(k int) { e.trajectory(k%P, len(batch[k/P]), scs[k/P]) })
	e.pool.Run(B*P, func(k int) { e.outputs(k%P, len(batch[k/P]), scs[k/P]) })
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
