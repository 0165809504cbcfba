package ad

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The loops below are the ones the tape and the optimizer ran before the
// column-lane kernels, kept here verbatim as the oracle every implementation
// is held to.

func matVecAdjointLoop(wGrad, xGrad, w, x, g []float64) {
	cols := len(x)
	for i := range g {
		gi := g[i]
		if gi == 0 {
			continue
		}
		wrow := w[i*cols : (i+1)*cols]
		grow := wGrad[i*cols : (i+1)*cols]
		for j := range wrow {
			grow[j] += gi * x[j]
			xGrad[j] += gi * wrow[j]
		}
	}
}

func weightedSumLoop(out, alpha []float64, rows [][]float64) {
	for k, row := range rows {
		a := alpha[k]
		for i, x := range row {
			out[i] += a * x
		}
	}
}

func weightedSumAdjointLoop(alphaGrad, g []float64, rows [][]float64) {
	for k, row := range rows {
		s := 0.0
		for i, x := range row {
			s += g[i] * x
		}
		alphaGrad[k] += s
	}
}

func adamLoop(data, grad, m, v []float64, beta1, beta2, lr, eps float64, step int) {
	c1 := 1 - math.Pow(beta1, float64(step))
	c2 := 1 - math.Pow(beta2, float64(step))
	for j, g := range grad {
		m[j] = beta1*m[j] + (1-beta1)*g
		v[j] = beta2*v[j] + (1-beta2)*g*g
		mh := m[j] / c1
		vh := v[j] / c2
		data[j] -= lr * mh / (math.Sqrt(vh) + eps)
	}
	for j := range grad {
		grad[j] = 0
	}
}

// cloneAt copies v into a fresh array at the same odd offset, so the kernel
// under test and the oracle start from equal, equally misaligned operands.
func cloneAt(v []float64, off int) []float64 {
	c := make([]float64, off+len(v))[off:]
	copy(c, v)
	return c
}

func requireSame(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("%s %s[%d]: %x, want %x", KernelImpl(), what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// checkColumnKernels holds the column-lane kernels, on the selected
// implementation, to the loops above over one rows×cols shape: colSums and
// outerSums — first as the one mat-vec adjoint they replace, then outerSums
// over three products into one gradient against three adjoints in turn —
// with every third δ exactly zero (so skipped rows sit beside whatever edge
// values the operands hold — a ±Inf in x or w would make the skipped addend
// NaN), peerDots over rows experts' blocks of cols floats cut into every
// window count that divides cols, and AdamUpdate over rows·cols parameters.
func checkColumnKernels(t *testing.T, rows, cols, off int, rng *rand.Rand, vals []float64, oneIn int) {
	t.Helper()
	what := fmt.Sprintf("%dx%d+%d", rows, cols, off)

	w := fillAt(rows*cols, off, rng, vals, oneIn)
	wGrad, xGrad := fillAt(rows*cols, off+1, rng, nil, 0), fillAt(cols, off, rng, nil, 0)
	wantW, wantX := cloneAt(wGrad, 0), cloneAt(xGrad, 0)
	var terms []outer
	for s := 0; s < 3 && rows > 0; s++ {
		x := fillAt(cols, off+2+s, rng, vals, oneIn)
		g := fillAt(rows, off+1+s, rng, vals, oneIn)
		for i := s; i < rows; i += 3 {
			g[i] = 0
		}
		terms = append(terms, outer{delta: g, x: x})
		if s > 0 {
			continue
		}
		colSums(xGrad, w, g)
		outerSums(wGrad, terms)
		matVecAdjointLoop(wantW, wantX, w, x, g)
		requireSame(t, what+" wGrad", wGrad, wantW)
		requireSame(t, what+" xGrad", xGrad, wantX)
	}
	if rows > 0 {
		outerSums(wGrad, terms)
		for _, s := range terms {
			matVecAdjointLoop(wantW, wantX, w, s.x, s.delta)
		}
		requireSame(t, what+" wGrad of three terms", wGrad, wantW)
	}

	if rows > 0 && cols > 0 {
		// rows experts' blocks of cols floats — units by windows, for each
		// window count that divides cols — in contiguous rows padded to four
		// lanes, as phase B's slab holds them. peerDots forms every row's
		// dots for each of three gradient blocks, a panel's; the op drops its
		// own expert's (TestWeightedSumConstMatchesLoop).
		const blocks = 3
		stride := (cols + 3) &^ 3
		base := fillAt(rows*stride, off, rng, vals, oneIn)
		g := fillAt(blocks*cols, off+1, rng, vals, oneIn)
		for n := 1; n <= cols; n++ {
			if cols%n != 0 {
				continue
			}
			dots := fillAt(blocks*rows*n, off+2, rng, nil, 0) // stale values peerDots must overwrite
			peerDots(dots, g, base, blocks, rows, stride, n)
			for b := 0; b < blocks; b++ {
				for k := 0; k < rows; k++ {
					for w := 0; w < n; w++ {
						var col, gw []float64
						for j := w; j < cols; j += n {
							col, gw = append(col, base[k*stride+j]), append(gw, g[b*cols+j])
						}
						want := []float64{0}
						weightedSumAdjointLoop(want, gw, [][]float64{col})
						requireSame(t, fmt.Sprintf("%s row dots ×%d windows, block %d row %d window %d", what, n, b, k, w), dots[(b*rows+k)*n+w:][:1], want)
					}
				}
			}
		}
	}

	n := rows * cols
	data, grad := fillAt(n, off, rng, nil, 0), fillAt(n, off+1, rng, vals, oneIn)
	m, v := fillAt(n, off+2, rng, nil, 0), fillAt(n, off+3, rng, nil, 0)
	for j := range v {
		v[j] *= v[j] // second moments are sums of squares
	}
	wd, wg, wm, wv := cloneAt(data, 1), cloneAt(grad, 0), cloneAt(m, 3), cloneAt(v, 2)
	AdamUpdate(data, grad, m, v, AdamHyper{Beta1: 0.9, Beta2: 0.999, C1: 1 - math.Pow(0.9, 2), C2: 1 - math.Pow(0.999, 2), LR: 0.01, Eps: 1e-8})
	adamLoop(wd, wg, wm, wv, 0.9, 0.999, 0.01, 1e-8, 2)
	requireSame(t, what+" adam data", data, wd)
	requireSame(t, what+" adam m", m, wm)
	requireSame(t, what+" adam v", v, wv)
	requireSame(t, what+" adam grad", grad, wg)
}

// gruBackwardLoop is the GRU adjoint as it ran before the weight gradients
// were deferred: every step forms all six of its own, through the loop above.
func gruBackwardLoop(v *Value) {
	g, x, hPrev := v.gru, v.a, v.b
	hid := g.Wz.Rows
	z, k, c, kh := v.aux[:hid], v.aux[hid:2*hid], v.aux[2*hid:3*hid], v.aux[3*hid:4*hid]
	gh := v.Grad
	xd, hd := x.Data, hPrev.Data

	buf := make([]float64, 4*hid)
	s2g, s6g, khg, s4g := buf[:hid], buf[hid:2*hid], buf[2*hid:3*hid], buf[3*hid:]

	for i := 0; i < hid; i++ {
		zg := 0.0
		zg -= gh[i] * c[i]
		zg += gh[i] * hd[i]
		s2g[i] = zg
		hPrev.Grad[i] += gh[i] * z[i]
	}
	for i := 0; i < hid; i++ {
		cg := gh[i] * (1 - z[i])
		s6 := cg * (1 - c[i]*c[i])
		s6g[i] = s6
		g.Bh.Grad[i] += s6
	}
	matVecAdjointLoop(g.Uh.Grad, khg, g.Uh.Data, kh, s6g)
	for i := 0; i < hid; i++ {
		gg := khg[i]
		hPrev.Grad[i] += gg * k[i]
		khg[i] = gg * hd[i]
	}
	matVecAdjointLoop(g.Wh.Grad, x.Grad, g.Wh.Data, xd, s6g)
	for i := 0; i < hid; i++ {
		s4 := khg[i] * k[i] * (1 - k[i])
		s4g[i] = s4
		g.Bk.Grad[i] += s4
	}
	matVecAdjointLoop(g.Uk.Grad, hPrev.Grad, g.Uk.Data, hd, s4g)
	matVecAdjointLoop(g.Wk.Grad, x.Grad, g.Wk.Data, xd, s4g)
	for i := 0; i < hid; i++ {
		s2 := s2g[i] * z[i] * (1 - z[i])
		s2g[i] = s2
		g.Bz.Grad[i] += s2
	}
	matVecAdjointLoop(g.Uz.Grad, hPrev.Grad, g.Uz.Data, hd, s2g)
	matVecAdjointLoop(g.Wz.Grad, x.Grad, g.Wz.Data, xd, s2g)
}

// backwardPerStep is Tape.Backward with gruBackwardLoop for the GRU steps:
// the undeferred reference.
func backwardPerStep(t *Tape, root *Value) {
	root.Grad[0] += 1
	for i := len(t.nodes) - 1; i >= 0; i-- {
		if v := t.nodes[i]; v.op == opGRUStep {
			gruBackwardLoop(v)
		} else {
			t.backstep(v)
		}
	}
}

// gruParams lists a cell's tensors in the order the tests compare them.
func gruParams(g *GRUParams) []*Param {
	return []*Param{g.Wz, g.Uz, g.Bz, g.Wk, g.Uk, g.Bk, g.Wh, g.Uh, g.Bh}
}

// chunkGrads records one training chunk — two cells stepping side by side
// over the same steps inputs on one tape, a squared-error loss on every
// state whose target equals the state at every third unit, so those units'
// loss gradient is exactly zero — runs backward over it twice without a
// Reset in between, and returns every gradient the chunk produces: both
// cells' nine tensors, every input's and both initial states'. Parameter Data
// and Grad start at odd elements of their arrays.
func chunkGrads(in, hid, steps int, xEdge float64, backward func(*Tape, *Value)) []float64 {
	rng := rand.New(rand.NewSource(int64(in*1000 + hid)))
	cells := []*GRUParams{newTestGRU(in, hid, rng), newTestGRU(in, hid, rng)}
	for _, p := range cells {
		for i, q := range gruParams(p) {
			q.Data = cloneAt(q.Data, 1+2*(i%3))
			q.Grad = cloneAt(q.Grad, 1+2*((i+1)%3))
		}
	}
	tape := NewTape()
	tape.Const([]float64{1}) // shift the arena so node vectors start odd too
	hs := []*Value{tape.Const(fillAt(hid, 3, rng, nil, 0)), tape.Const(fillAt(hid, 1, rng, nil, 0))}
	leaves := append([]*Value(nil), hs...)
	var losses []*Value
	for s := 0; s < steps; s++ {
		x := fillAt(in, 1, rng, nil, 0)
		if xEdge != 0 {
			x[in/2] = xEdge
		}
		xv := tape.Const(x)
		leaves = append(leaves, xv)
		for c, p := range cells {
			hs[c] = tape.GRUStep(p, xv, hs[c])
			tgt := fillAt(hid, 0, rng, nil, 0)
			for i := (s + c) % 3; i < hid; i += 3 {
				tgt[i] = hs[c].Data[i]
			}
			losses = append(losses, tape.SquaredError(hs[c], tgt))
		}
	}
	root := tape.ScaleConst(tape.SumScalars(losses...), 1/float64(steps))
	backward(tape, root)
	backward(tape, root)

	var all []float64
	for _, p := range cells {
		for _, q := range gruParams(p) {
			all = append(all, q.Grad...)
		}
	}
	for _, v := range leaves {
		all = append(all, v.Grad...)
	}
	return all
}

// TestGRUBackwardMatchesGoLoops holds the GRU adjoint on every
// implementation to the Go loops it replaced: first the two kernels against
// the verbatim mat-vec adjoint loop (checkColumnKernels: every rung of the
// 32/4/tail column ladder, odd offsets, edge values, zero-δ rows, one term
// and several), then whole chunks of 1, 2, 5 and 48 steps through
// Tape.Backward — per step only the transposed products, the weight
// gradients formed once at the end — against the same chunk differentiated
// step by step (backwardPerStep), across input widths on both sides of the
// ladder's rungs and hidden widths on both sides of the forward's: all
// eighteen parameter gradients of two cells sharing a tape, every x.Grad and
// both initial states', after two backward passes. Once more with a ±Inf
// input, which saturates every gate so every δ is zero: the skip must then
// leave every weight gradient +0 where 0·Inf would have written NaN.
func TestGRUBackwardMatchesGoLoops(t *testing.T) {
	ins, hids := []int{1, 3, 4, 5, 67, 257}, []int{4, 5, 7, 16, 37, 128}
	wants := map[string][]float64{}
	for _, impl := range impls() {
		t.Run(impl, func(t *testing.T) {
			setImpl(t, impl)
			for _, in := range ins {
				for _, hid := range hids {
					for set, e := range edgeSets {
						rng := rand.New(rand.NewSource(int64(in*1000 + hid)))
						checkColumnKernels(t, hid, in, 1+2*set, rng, e.vals, e.oneIn)
					}
					for _, steps := range []int{1, 2, 5, 48} {
						// The estimator's chunk length on four shapes that
						// between them cross every rung.
						if steps == 48 && !((in == 5 || in == 67) && (hid == 7 || hid == 128)) || steps == 5 && in*hid > 67*128 {
							continue
						}
						for _, xEdge := range []float64{0, math.Inf(1), math.Inf(-1)} {
							// The reference's bits do not depend on the
							// implementation selected: form them once.
							key := fmt.Sprint(in, hid, steps, xEdge)
							want := wants[key]
							if want == nil {
								want = chunkGrads(in, hid, steps, xEdge, backwardPerStep)
								wants[key] = want
							}
							got := chunkGrads(in, hid, steps, xEdge, (*Tape).Backward)
							requireSame(t, fmt.Sprintf("%d→%d ×%d x=%v gradient", in, hid, steps, xEdge), got, want)
							if xEdge == 0 {
								continue
							}
							// Saturated gates: no δ survives, so no weight
							// gradient may have moved off +0.
							for i, g := range got[:2*(3*hid*(in+hid+1))] {
								if math.Float64bits(g) != 0 {
									t.Fatalf("%d→%d ×%d x=%v: parameter gradient %d = %v, want +0 (a zero δ was not skipped)", in, hid, steps, xEdge, i, g)
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestGRUStepRejectsComposedUse: deferring a cell's weight gradients to the
// end of Backward is exact only while GRUStep is all that adds to them, so a
// tape that also holds one of the cell's parameters as a Use node must be
// refused by name — and a tape that composes the chain from Use nodes alone
// (layers.StepReference's kind) must not be.
func TestGRUStepRejectsComposedUse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := newTestGRU(3, 4, rng)
	x, h := fillAt(3, 0, rng, nil, 0), fillAt(4, 0, rng, nil, 0)
	for _, p := range gruParams(g) {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "parameter "+p.Name+" ") {
					t.Fatalf("Backward over GRUStep and Use(%s): recovered %v, want a panic naming the parameter", p.Name, r)
				}
			}()
			tape := NewTape()
			out := tape.GRUStep(g, tape.Const(x), tape.Const(h))
			tape.Use(p)
			tape.Backward(tape.SquaredError(out, h))
		}()
	}
	tape := NewTape()
	xv, hv := tape.Const(x), tape.Const(h)
	pre := tape.Add(tape.Add(tape.MatVec(tape.Use(g.Wz), xv), tape.MatVec(tape.Use(g.Uz), hv)), tape.Use(g.Bz))
	tape.Backward(tape.SquaredError(tape.Sigmoid(pre), h))
}

// TestResetDropsPendingGRUSteps: a step whose backward ran outside Backward
// (or before a panic cut Backward short) is pending; Reset must forget it, or
// the next chunk's flush would read the recycled arena.
func TestResetDropsPendingGRUSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := newTestGRU(3, 4, rng)
	chunk := func(tape *Tape) *Value {
		out := tape.GRUStep(g, tape.Const([]float64{1, 2, 3}), tape.Const(make([]float64, 4)))
		return tape.SquaredError(out, make([]float64, 4))
	}
	grads := func() (all []float64) {
		for _, p := range gruParams(g) {
			all = append(all, p.Grad...)
			clear(p.Grad)
		}
		return all
	}
	fresh := NewTape()
	fresh.Backward(chunk(fresh))
	want := grads()

	tape := NewTape()
	loss := chunk(tape)
	loss.Grad[0] = 1
	tape.backstep(loss)
	tape.backstep(loss.a)
	if len(tape.gruSteps) != 1 {
		t.Fatalf("%d pending steps after one GRU backstep, want 1", len(tape.gruSteps))
	}
	grads()
	tape.Reset()
	if len(tape.gruSteps) != 0 {
		t.Fatalf("%d pending steps survive Reset", len(tape.gruSteps))
	}
	tape.Backward(chunk(tape))
	requireSame(t, "gradient after Reset", grads(), want)
	if len(tape.gruSteps) != 0 {
		t.Fatalf("%d pending steps survive Backward", len(tape.gruSteps))
	}
}

// TestAdamStepMatchesScalar drives AdamUpdate and the scalar loop it replaced
// through three consecutive steps from zero moments — so steps 2 and 3 start
// from the moments step 1 left — and requires parameters, both moments and
// the zeroed gradient bit-equal after each, over lengths on both sides of the
// four-lane block, with zero, subnormal and 1e150 gradients beside normal
// ones (1e150 squares to within a few orders of overflow), and with the
// gradient first scaled the way ClipGradNorm scales it ("clipping on") or
// left alone.
func TestAdamStepMatchesScalar(t *testing.T) {
	grads := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -0x1p-1040, 1e150, -1e150}
	for _, impl := range impls() {
		t.Run(impl, func(t *testing.T) {
			setImpl(t, impl)
			for _, n := range []int{1, 3, 4, 5, 67, 8576} {
				for _, clip := range []float64{0, 5} {
					rng := rand.New(rand.NewSource(int64(n)))
					data, m, v := fillAt(n, 1, rng, nil, 0), make([]float64, n+3)[3:], make([]float64, n+1)[1:]
					wd, wm, wv := cloneAt(data, 2), make([]float64, n), make([]float64, n)
					for step := 1; step <= 3; step++ {
						grad := fillAt(n, 2, rng, grads, 3)
						if clip > 0 {
							total := 0.0
							for _, g := range grad {
								total += g * g
							}
							if norm := math.Sqrt(total); norm > clip {
								for i := range grad {
									grad[i] *= clip / norm
								}
							}
						}
						wg := cloneAt(grad, 0)
						AdamUpdate(data, grad, m, v, AdamHyper{
							Beta1: 0.9, Beta2: 0.999,
							C1: 1 - math.Pow(0.9, float64(step)), C2: 1 - math.Pow(0.999, float64(step)),
							LR: 0.01, Eps: 1e-8,
						})
						adamLoop(wd, wg, wm, wv, 0.9, 0.999, 0.01, 1e-8, step)
						what := fmt.Sprintf("n=%d clip=%v step %d", n, clip, step)
						requireSame(t, what+" data", data, wd)
						requireSame(t, what+" m", m, wm)
						requireSame(t, what+" v", v, wv)
						requireSame(t, what+" grad", grad, wg)
					}
				}
			}
		})
	}
}

// TestWeightedSumConstMatchesLoop holds the tape's attention op, on every
// implementation, to the loops over [][]float64 rows it stands for: one op
// over a chunk's block of windows, each window's context taken out with
// Column, must give every window the forward of weightedSumLoop over the
// other experts in order and, through Backward, the weights the gradient of
// weightedSumAdjointLoop applied window by window, windows descending — what
// one-window ops recorded in window order added. Chunks of 1, 3, 24 and 48
// windows; expert counts of every remainder mod 4 and the repo benchmark's
// two shapes; self at 0, at a quad boundary and at P−1; every edge set.
func TestWeightedSumConstMatchesLoop(t *testing.T) {
	for _, impl := range impls() {
		t.Run(impl, func(t *testing.T) {
			setImpl(t, impl)
			for _, chunk := range []int{1, 3, 24, 48} {
				for _, d := range []struct{ experts, hid int }{{5, 4}, {6, 7}, {7, 1}, {8, 3}, {18, 5}, {77, 128}, {400, 16}} {
					rng := rand.New(rand.NewSource(int64(chunk*1000 + d.experts)))
					for set, e := range edgeSets {
						// The chunk starts two steps into the slab.
						slab := fillAt(d.experts*(2+chunk)*d.hid, 1+2*set, rng, e.vals, e.oneIn)
						for _, self := range []int{0, 4, d.experts - 1} {
							what := fmt.Sprintf("%d windows, %dx%d, self %d, edges %d", chunk, d.experts, d.hid, self, set)
							checkAttentionChunk(t, what, rng, slab, chunk, d.experts, d.hid, self, e.vals, e.oneIn, 1+2*set)
						}
					}
				}
			}
		})
	}
}

// checkAttentionChunk cuts the last chunk windows out of a slab of experts'
// trajectories into window-minor rows padded to four lanes, records one
// WeightedSumConst for expert self and a Column per window, checks each
// window's context against weightedSumLoop over the other experts, in order,
// differentiates Σ_t g_t·context_t for drawn g_t, and checks the weights'
// gradient against weightedSumAdjointLoop window by window, descending.
// Self's own row holds signed zeros and subnormals: the op adds +0·h_self,
// and a non-finite own state makes the expert's output NaN on every path.
func checkAttentionChunk(t *testing.T, what string, rng *rand.Rand, slab []float64, chunk, experts, hid, self int, vals []float64, oneIn, off int) {
	t.Helper()
	steps := len(slab) / (experts * hid)
	lead := steps - chunk
	state := func(p, step int) []float64 { return slab[(p*steps+step)*hid:][:hid] }
	stride := (hid*chunk + 3) &^ 3
	blocks := make([]float64, off+experts*stride)[off:]
	var idx []int
	for p := 0; p < experts; p++ {
		if p != self {
			idx = append(idx, p)
		}
		for c := 0; c < chunk; c++ {
			for j, x := range state(p, lead+c) {
				blocks[p*stride+j*chunk+c] = x
			}
		}
	}
	copy(blocks[self*stride:], fillAt(hid*chunk, 0, rng, edgeSets[1].vals, edgeSets[1].oneIn))
	alpha := &Param{Rows: len(idx), Cols: 1,
		Data: fillAt(len(idx), off, rng, vals, oneIn), Grad: fillAt(len(idx), off+1, rng, nil, 0)}
	want := cloneAt(alpha.Grad, 0)

	tape := NewTape()
	ctx := tape.WeightedSumConst(tape.Use(alpha), self, blocks, stride, hid, chunk)
	terms := make([]*Value, chunk)
	for c := range terms {
		var rows [][]float64
		for _, p := range idx {
			rows = append(rows, state(p, lead+c))
		}
		fwd := make([]float64, hid)
		weightedSumLoop(fwd, alpha.Data, rows)
		col := tape.Column(ctx, c)
		requireSame(t, what+" forward", col.Data, fwd)
		// g_t as a 1×hid matrix: the product's adjoint hands the context
		// +0 + 1·g_t.
		g := tape.Const(fillAt(hid, off, rng, vals, oneIn))
		g.Rows, g.Cols = 1, hid
		terms[c] = tape.MatVec(g, col)
	}
	tape.Backward(tape.SumScalars(terms...))
	for c := chunk - 1; c >= 0; c-- {
		var rows [][]float64
		for _, p := range idx {
			rows = append(rows, state(p, lead+c))
		}
		g := make([]float64, hid)
		for j := range g {
			g[j] = ctx.Grad[j*chunk+c]
		}
		weightedSumAdjointLoop(want, g, rows)
	}
	requireSame(t, what+" alpha.Grad", alpha.Grad, want)
}

// TestWeightedSumConstRejectsShortBase: base must hold all P experts' rows,
// padded to four lanes. Forward and adjoint (peerDots) panic by the op's
// name on one row too few, and the forward on an unpadded stride, on every
// implementation, at 1, 4 and 32 windows —
// the one bounds check left, since no index list can point outside.
func TestWeightedSumConstRejectsShortBase(t *testing.T) {
	for _, impl := range impls() {
		t.Run(impl, func(t *testing.T) {
			setImpl(t, impl)
			for _, windows := range []int{1, 4, 32} {
				// Five experts' blocks of two units by windows.
				stride := (2*windows + 3) &^ 3
				alpha := &Param{Rows: 4, Cols: 1, Data: make([]float64, 4), Grad: make([]float64, 4)}
				tape := NewTape()
				for _, c := range []struct {
					what string
					call func()
				}{
					{"forward", func() { tape.WeightedSumConst(tape.Use(alpha), 2, make([]float64, 4*stride+3), stride, 2, windows) }},
					{"forward over unpadded rows", func() {
						tape.WeightedSumConst(tape.Use(alpha), 2, make([]float64, 5*(2*windows+1)), 2*windows+1, 2, windows)
					}},
					{"adjoint", func() {
						peerDots(make([]float64, 5*windows), make([]float64, 2*windows), make([]float64, 4*stride+3), 1, 5, stride, windows)
					}},
				} {
					func() {
						defer func() {
							if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "WeightedSumConst") {
								t.Fatalf("%s, 5 experts, %d windows: recovered %v", c.what, windows, r)
							}
						}()
						c.call()
					}()
				}
			}
		})
	}
}

// BenchmarkGRUBackward times the backward pass of one 48-step training chunk
// (the estimator's truncation length) — the steps' adjoints and the flush
// that forms the weight gradients, which a lone step no longer does — on each
// implementation, at the widths BenchmarkGRUKernelStep times the forward.
func BenchmarkGRUBackward(b *testing.B) {
	const steps = 48
	for _, dim := range []struct{ in, hid int }{{67, 128}, {257, 16}, {9, 4}} {
		for _, impl := range impls() {
			b.Run(fmt.Sprintf("%dx%d/%s", dim.in, dim.hid, impl), func(b *testing.B) {
				setImpl(b, impl)
				rng := rand.New(rand.NewSource(1))
				p := newTestGRU(dim.in, dim.hid, rng)
				tape := NewTape()
				h := tape.Const(make([]float64, dim.hid))
				losses := make([]*Value, steps)
				for s := range losses {
					h = tape.GRUStep(p, tape.Const(fillAt(dim.in, 0, rng, nil, 0)), h)
					losses[s] = tape.SquaredError(h, fillAt(dim.hid, 0, rng, nil, 0))
				}
				root := tape.ScaleConst(tape.SumScalars(losses...), 1.0/steps)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Node gradients start at zero, as a fresh chunk's do:
					// left to compound over passes they overflow.
					for _, v := range tape.nodes {
						clear(v.Grad)
					}
					tape.Backward(root)
				}
				benchSink = p.Wz.Grad[0]
			})
		}
	}
}

// BenchmarkAdamStep times one update of a social-width expert's 76,029
// parameters on each implementation.
func BenchmarkAdamStep(b *testing.B) {
	const n = 3*(128*67+128*128+128) + 67 + 75 + 3*256 + 3 + 3*67 + 3
	for _, impl := range impls() {
		b.Run(impl, func(b *testing.B) {
			setImpl(b, impl)
			rng := rand.New(rand.NewSource(1))
			data, grad := fillAt(n, 0, rng, nil, 0), make([]float64, n)
			m, v := make([]float64, n), make([]float64, n)
			h := AdamHyper{Beta1: 0.9, Beta2: 0.999, C1: 0.1, C2: 0.001, LR: 0.01, Eps: 1e-8}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range grad {
					grad[j] = data[j]
				}
				AdamUpdate(data, grad, m, v, h)
			}
			benchSink = data[0]
		})
	}
}

// BenchmarkPeerAdjoint times the α gradients of one phase-B epoch of one
// chunk of T windows: every panel of four experts' AttentionGrads — one pass
// over the P experts' trajectories for the panel's four blocks of context
// gradients — on each implementation, at
// the two shapes the repo benchmark trains (BenchmarkPeerContexts times the
// contexts).
func BenchmarkPeerAdjoint(b *testing.B) {
	for _, d := range peerShapes {
		for _, impl := range impls() {
			b.Run(fmt.Sprintf("%dx%dx%d/%s", d.P, d.T, d.hid, impl), func(b *testing.B) {
				setImpl(b, impl)
				rng := rand.New(rand.NewSource(1))
				stride := d.hid * d.T
				rows := fillAt(d.P*stride, 0, rng, nil, 0)
				g := fillAt(4*d.hid*d.T, 0, rng, nil, 0)
				grads, selves := make([][]float64, 4), make([]int, 4)
				dots := make([]float64, 4*d.P*d.T)
				b.ReportAllocs()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					for i := 0; i < d.P; i += 4 {
						m := min(4, d.P-i)
						for e := range m {
							grads[e], selves[e] = make([]float64, d.P-1), i+e
						}
						AttentionGrads(grads[:m], selves[:m], g[:m*d.hid*d.T], rows, stride, d.T, dots)
					}
				}
				benchSink = dots[0]
			})
		}
	}
}
