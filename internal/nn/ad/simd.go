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
