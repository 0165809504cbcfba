package ad

import "math"

// The training half of the dense kernels: the adjoint of a mat-vec, the
// adjoint of the attention peer sum, and the Adam update. Each is the Go loop
// the tape and the optimizer always ran, with an AVX2 rung in front of it
// whose lanes are columns of the destination (see simd_amd64.s): a memory
// location receives the same addends in the same order either way.

// matVecAdjoint is the backward rule of y = W·x given g = ∂loss/∂y, for the
// len(g) rows of the row-major w: for every row i whose g[i] is not zero, in
// ascending i,
//
//	wGrad[i,j] += g[i]·x[j]    xGrad[j] += g[i]·w[i,j]
//
// A zero g[i] skips its row, as the MatVec adjoint always has: the skipped
// addends are ±0 unless x or w holds a non-finite value, and then skipping
// is what keeps a dead row from turning the gradient into NaN.
func matVecAdjoint(wGrad, xGrad, w, x, g []float64) {
	cols := len(x)
	xGrad = xGrad[:cols]
	for i, gi := range g {
		if gi == 0 {
			continue
		}
		wrow := w[i*cols : (i+1)*cols]
		grow := wGrad[i*cols : (i+1)*cols]
		// The assembly takes bare pointers: an empty row must not reach it.
		if useAVX2 && cols > 0 {
			axpy2AVX2(&grow[0], &xGrad[0], &x[0], &wrow[0], gi, cols)
			continue
		}
		for j := range wrow {
			grow[j] += gi * x[j]
			xGrad[j] += gi * wrow[j]
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
