package ad

import "math"

// The training half of the dense kernels: the two products of a mat-vec
// adjoint, the adjoint of the attention sum, and the Adam update. Each is
// the Go loop the tape and the optimizer always ran, with an AVX2 rung in
// front of it whose lanes are columns of the destination (see simd_amd64.s):
// a memory location receives the same addends in the same order either way.
//
// The backward rule of y = W·x given δ = ∂loss/∂y is, for every row i whose
// δ[i] is not zero, in ascending i,
//
//	xGrad[j] += δ[i]·w[i,j]    wGrad[i,j] += δ[i]·x[j]
//
// A zero δ[i] skips its row, as the MatVec adjoint always has: the skipped
// addends are ±0 unless x or w holds a non-finite value, and then skipping
// is what keeps a dead row from turning the gradient into NaN. The two
// updates touch different memory, so they are two kernels: colSums is needed
// at once (the recurrence consumes xGrad), outerSums can wait for every
// product into the same W the caller has collected.

// colSums adds the transposed product to xGrad: xGrad[j] += Σ_i g[i]·w[i,j]
// over the len(g) rows of the row-major w, i ascending, zero g[i] skipped.
func colSums(xGrad, w, g []float64) {
	cols := len(xGrad)
	w = w[:len(g)*cols]
	// The assembly takes bare pointers: an empty matrix must not reach it.
	if useAVX2 && len(w) > 0 {
		colSumsAVX2(&xGrad[0], &w[0], &g[0], len(g), cols)
		return
	}
	for i, gi := range g {
		if gi != 0 {
			for j, wij := range w[i*cols:][:len(xGrad)] {
				xGrad[j] += gi * wij
			}
		}
	}
}

// outer is one addend δ·xᵀ of a weight gradient. The assembly reads the two
// data pointers where a slice header keeps them.
type outer struct{ delta, x []float64 }

// outerSums adds the terms' outer products to the row-major wGrad:
// wGrad[i,j] += Σ_t δ_t[i]·x_t[j], t in terms order, zero δ_t[i] skipped —
// per location what one mat-vec adjoint after another adds, with (in the
// assembly) the location loaded and stored once instead of once per term.
func outerSums(wGrad []float64, terms []outer) {
	rows, cols := len(terms[0].delta), len(terms[0].x)
	wGrad = wGrad[:rows*cols]
	for t := range terms {
		if len(terms[t].delta) != rows || len(terms[t].x) != cols {
			panic("ad: outerSums terms of different shapes")
		}
	}
	if useAVX2 && len(wGrad) > 0 {
		outerSumsAVX2(&wGrad[0], rows, cols, &terms[0], len(terms))
		return
	}
	for i := 0; i < rows; i++ {
		grow := wGrad[i*cols : (i+1)*cols]
		for t := range terms {
			if d := terms[t].delta[i]; d != 0 {
				for j, xj := range terms[t].x[:len(grow)] {
					grow[j] += d * xj
				}
			}
		}
	}
}

// peerDots is the adjoint of the attention sum over a block of n windows
// with respect to the rows of the attention matrix, before it is added, for
// several blocks of context gradients at once: g holds blocks consecutive
// window-minor blocks of hidden×n floats (hidden = len(g)/blocks/n), and for
// every block b, every one of the rows rows of base, stride floats apart, and
// every window t, dots[(b*rows+k)*n+t] = Σ_j g_b[j*n+t]·base[k*stride+j*n+t],
// each a single accumulator that starts at +0 and walks the units upwards.
// base is walked once: each quad of its rows serves every block while it is
// in cache. With AVX2 the assembly (peerDotsAVX2) takes the n&^3 windows of
// full lane groups, windows in the lanes, a quad of rows per call, the last
// rows%4 as a quad that overlaps the one before it (whose dots it forms
// again, the same bits); the Go loop takes the other windows, and every
// window of fewer than four rows.
func peerDots(dots, g, base []float64, blocks, rows, stride, n int) {
	gl := len(g) / blocks
	base = peerRows(base, rows, stride, gl)
	dots = dots[:blocks*rows*n]
	hidden := gl / n
	w := 0
	if useAVX2 && n >= 4 && rows >= 4 && hidden > 0 {
		w = n &^ 3
		for r := 0; r < rows; r += 4 {
			q := min(r, rows-4)
			for b := 0; b < blocks; b++ {
				peerDotsAVX2(&dots[(b*rows+q)*n], &g[b*gl], n, hidden, 4, &base[q*stride], stride)
			}
		}
	}
	if w == n {
		return
	}
	for k := range rows {
		h := base[k*stride:][:gl]
		for b := range blocks {
			d, gb := dots[(b*rows+k)*n+w:(b*rows+k+1)*n], g[b*gl:][:gl]
			clear(d)
			for j := w; j < gl; j += n {
				for t, x := range h[j:][:len(d)] {
					d[t] += gb[j+t] * x
				}
			}
		}
	}
}

// AttentionGrads adds to the α gradients of a panel of experts the adjoint
// of their attention contexts over one block of n windows: grads[b] is expert
// selves[b]'s gradient (P−1 floats), g holds the experts' context gradients,
// len(grads) consecutive window-minor blocks of hidden×n floats, base all P
// experts' rows, stride floats apart, as the contexts were formed from, and
// dots is len(grads)·P·n floats of scratch. One pass over base forms every
// expert's dots (peerDots); each gradient then gets its own, self's dropped,
// as addDots adds them. Tape.WeightedSumConst's backward is this with one
// block, so an expert's gradient has the same bits in a panel as alone.
func AttentionGrads(grads [][]float64, selves []int, g, base []float64, stride, n int, dots []float64) {
	P := len(grads[0]) + 1
	peerDots(dots, g, base, len(grads), P, stride, n)
	for b, grad := range grads {
		// Self's dot is formed with the others' and dropped.
		d, self := dots[b*P*n:][:P*n], selves[b]
		addDots(grad[:self], d[:self*n], n)
		addDots(grad[self:], d[(self+1)*n:], n)
	}
}

// addDots adds each weight's windows' dots to its gradient, one window at a
// time, windows descending: grad[k] += dots[k*n+t] for t from n−1 down to 0 —
// the order in which Backward would visit one-window ops recorded window by
// window. The weights go four at a time, like dot4's rows: four independent
// add chains, each in its own order.
func addDots(grad, dots []float64, n int) {
	k := 0
	for ; k+4 <= len(grad); k += 4 {
		s0, s1, s2, s3 := grad[k], grad[k+1], grad[k+2], grad[k+3]
		d0, d1, d2, d3 := dots[k*n:][:n], dots[(k+1)*n:][:n], dots[(k+2)*n:][:n], dots[(k+3)*n:][:n]
		for t := n - 1; t >= 0; t-- {
			s0 += d0[t]
			s1 += d1[t]
			s2 += d2[t]
			s3 += d3[t]
		}
		grad[k], grad[k+1], grad[k+2], grad[k+3] = s0, s1, s2, s3
	}
	for ; k < len(grad); k++ {
		s := grad[k]
		for t := n - 1; t >= 0; t-- {
			s += dots[k*n+t]
		}
		grad[k] = s
	}
}

// AdamHyper carries the constants of one Adam step: the decay rates, the
// bias corrections C1 = 1−β1ᵗ and C2 = 1−β2ᵗ of step t, the learning rate
// and the stabiliser.
type AdamHyper struct {
	Beta1, Beta2, C1, C2, LR, Eps float64
}

// AdamUpdate applies one bias-corrected Adam update to data from grad and the
// moment estimates m and v, and zeroes grad. It lives here, beside the other
// kernels, because the implementation selector does; opt.Adam is its caller.
// The vector form performs the Go loop's operations one for one — multiply,
// add, divide and square root are each correctly rounded in both — so the
// parameters it leaves are Float64bits-equal.
func AdamUpdate(data, grad, m, v []float64, h AdamHyper) {
	n := len(data)
	grad, m, v = grad[:n], m[:n], v[:n]
	j := 0
	if useAVX2 && n >= 4 {
		j = n &^ 3
		c := [8]float64{h.Beta1, 1 - h.Beta1, h.Beta2, 1 - h.Beta2, h.C1, h.C2, h.LR, h.Eps}
		adamAVX2(&data[0], &grad[0], &m[0], &v[0], j, &c)
	}
	for ; j < n; j++ {
		g := grad[j]
		m[j] = h.Beta1*m[j] + (1-h.Beta1)*g
		v[j] = h.Beta2*v[j] + (1-h.Beta2)*g*g
		mh := m[j] / h.C1
		vh := v[j] / h.C2
		data[j] -= h.LR * mh / (math.Sqrt(vh) + h.Eps)
		grad[j] = 0
	}
}
