package ad

// useAVX2 selects the hand-written amd64 kernels (simd_amd64.s) over the Go
// loops. It is decided once, at start-up, from what the processor and the
// operating system report; only the package's tests assign it afterwards, to
// run both implementations against each other.
var useAVX2 = haveAVX2()

// KernelImpl names the implementation behind the dense kernels in this
// process: "avx2" or "go". The daemon exports it (deeprest_kernel_info), so
// a host that silently runs the portable loops is visible.
func KernelImpl() string {
	if useAVX2 {
		return "avx2"
	}
	return "go"
}

// WindowDots writes dst[r*tp+t] = dot(w[r*cols:(r+1)*cols], x_t) for every
// row r of the row-major rows×cols matrix w and every window t of a series
// handed over time-minor: xT[k*tp+t] = x_t[k], tp the series length rounded
// up to a multiple of four, the padding windows zero (their sums are written
// and mean nothing). One pass over w serves the whole series, and with
// windows in the lanes a weight is a broadcast, so w is read as it lies in
// Param.Data. Every (row, window) sum starts at +0 and adds w[r][k]*x_t[k] in
// ascending k — dot's value, bit for bit, on either implementation.
func WindowDots(dst, w, xT []float64, rows, cols, tp int) {
	if tp%4 != 0 {
		panic("ad: WindowDots: window count not padded to a multiple of four")
	}
	// The assembly takes bare pointers: an operand too short for the shape
	// panics here, and an empty one never reaches it.
	dst, w, xT = dst[:rows*tp], w[:rows*cols], xT[:cols*tp]
	if cols == 0 {
		clear(dst)
		return
	}
	if useAVX2 && len(dst) > 0 {
		windowDotsAVX2(&dst[0], &w[0], &xT[0], rows, cols, tp)
		return
	}
	// Rows go four at a time, like dot4's, against one window's strided
	// column of xT, then one at a time; the multiply-add is written as in dot.
	r := 0
	for ; r+4 <= rows; r += 4 {
		r0, r1, r2, r3 := w[r*cols:][:cols], w[(r+1)*cols:][:cols], w[(r+2)*cols:][:cols], w[(r+3)*cols:][:cols]
		for t := 0; t < tp; t++ {
			var s0, s1, s2, s3 float64
			x := xT[t:]
			for k := range r0 {
				xk := x[k*tp]
				s0 += r0[k] * xk
				s1 += r1[k] * xk
				s2 += r2[k] * xk
				s3 += r3[k] * xk
			}
			dst[r*tp+t], dst[(r+1)*tp+t], dst[(r+2)*tp+t], dst[(r+3)*tp+t] = s0, s1, s2, s3
		}
	}
	for ; r < rows; r++ {
		for t := 0; t < tp; t++ {
			s := 0.0
			x := xT[t:]
			for k, wv := range w[r*cols : (r+1)*cols] {
				s += wv * x[k*tp]
			}
			dst[r*tp+t] = s
		}
	}
}

// PeerSum writes the attention context dst[j] = Σ_k alpha[k]·base[idx[k]*stride+j]:
// peer k's vector is the len(dst) floats of base starting at idx[k]*stride.
// Every dst[j] starts at +0 and adds its products in idx order — the order
// the tape's WeightedSumConst uses — on either implementation.
func PeerSum(dst, alpha []float64, idx []int, base []float64, stride int) {
	alpha = alpha[:len(idx)]
	// The assembly takes bare pointers: no peers or fewer than four columns
	// stay in Go, and it is told the last index whose vector fits in base.
	if useAVX2 && len(idx) > 0 && len(dst) >= 4 && stride > 0 && len(base) >= len(dst) {
		n := len(dst) &^ 3
		limit := (len(base) - len(dst)) / stride
		if !peerSumAVX2(&dst[0], n, &alpha[0], &idx[0], len(idx), &base[0], stride, limit) {
			panic("ad: PeerSum: peer index out of range")
		}
		if n == len(dst) {
			return
		}
		dst, base = dst[n:], base[n:]
	}
	clear(dst)
	for k, p := range idx {
		a := alpha[k]
		for j, x := range base[p*stride:][:len(dst)] {
			dst[j] += a * x
		}
	}
}
