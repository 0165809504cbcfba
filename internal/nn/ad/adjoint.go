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

// peerDots is the adjoint of WeightedSumConst's sum over a block of windows
// with respect to its row, before it is added: for every one of the rows
// rows of base, stride floats apart, and every window t of the window-minor
// blocks (n windows a unit, len(g)/n units), dots[k*n+t] =
// Σ_j g[j*n+t]·base[k*stride+j*n+t], each a single accumulator that starts at
// +0 and walks the units upwards. With AVX2 the assembly (peerDotsAVX2) takes
// the n&^3 windows of full lane groups, windows in the lanes, four rows at a
// time, the last rows%4 as a quad that overlaps the one before it (whose dots
// it forms again, the same bits); the Go loop takes the other windows, and
// every window of fewer than four rows.
func peerDots(dots, g, base []float64, rows, stride, n int) {
	base = peerRows(base, rows, stride, len(g))
	dots = dots[:rows*n]
	hidden := len(g) / n
	w := 0
	if useAVX2 && n >= 4 && rows >= 4 && hidden > 0 {
		w = n &^ 3
		peerDotsAVX2(&dots[0], &g[0], n, hidden, rows&^3, &base[0], stride)
		if r := rows - 4; rows%4 != 0 {
			peerDotsAVX2(&dots[r*n], &g[0], n, hidden, 4, &base[r*stride], stride)
		}
	}
	if w == n {
		return
	}
	for k := range rows {
		d, h := dots[k*n+w:(k+1)*n], base[k*stride:][:len(g)]
		clear(d)
		for j := w; j < len(g); j += n {
			for t, x := range h[j:][:len(d)] {
				d[t] += g[j+t] * x
			}
		}
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
