package ad

import "math"

// The training half of the dense kernels: the two products of a mat-vec
// adjoint, the adjoint of the attention peer sum, and the Adam update. Each is
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

// peerDots is the adjoint of PeerSum with respect to alpha, given g =
// ∂loss/∂dst: alphaGrad[k] += Σ_j g[j]·base[idx[k]*stride+j], each sum a
// single accumulator that starts at +0 and walks j upwards. With AVX2 whole
// groups of four peers go through the assembly, one lane per peer; the
// len(idx)%4 remainder runs the Go loop.
func peerDots(alphaGrad, g []float64, idx []int, base []float64, stride int) {
	alphaGrad = alphaGrad[:len(idx)]
	k := 0
	if useAVX2 && len(idx) >= 4 && len(g) > 0 && stride > 0 && len(base) >= len(g) {
		k = len(idx) &^ 3
		limit := (len(base) - len(g)) / stride
		if !peerDotsAVX2(&alphaGrad[0], &g[0], len(g), &idx[0], k, &base[0], stride, limit) {
			panic("ad: WeightedSumConst: peer index out of range")
		}
	}
	for ; k < len(idx); k++ {
		s := 0.0
		for j, x := range base[idx[k]*stride:][:len(g)] {
			s += g[j] * x
		}
		alphaGrad[k] += s
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
