//go:build !amd64

package ad

func haveAVX2() bool { return false }
func haveFMA() bool  { return false }

// The AVX2 entry points exist only on amd64; useAVX2 is never true here.

func rowDots16PackAVX2(dst, w, x *float64, cols int, panel *float64) {
	panic("ad: no AVX2 kernels on this platform")
}
func rowDots4PackAVX2(dst, w, x *float64, cols int, panel *float64) {
	panic("ad: no AVX2 kernels on this platform")
}
func rowDots16PackedAVX2(dst, w, x *float64, cols int) { panic("ad: no AVX2 kernels on this platform") }
func rowDots4PackedAVX2(dst, w, x *float64, cols int)  { panic("ad: no AVX2 kernels on this platform") }
func windowDotsAVX2(dst, w, xT *float64, rows, cols, tp int) {
	panic("ad: no AVX2 kernels on this platform")
}
func gateRowsAVX2(dst, gate, xT *float64, rows *int, n, tp int) {
	panic("ad: no AVX2 kernels on this platform")
}
func colSumsAVX2(acc, w, d *float64, rows, cols int) {
	panic("ad: no AVX2 kernels on this platform")
}
func outerSumsAVX2(grad *float64, rows, cols int, terms *outer, n int) {
	panic("ad: no AVX2 kernels on this platform")
}
func peerDotsAVX2(dots, dy *float64, n, hidden, rows int, base *float64, stride int) {
	panic("ad: no AVX2 kernels on this platform")
}
func adamAVX2(data, grad, m, v *float64, n int, h *[8]float64) {
	panic("ad: no AVX2 kernels on this platform")
}
func sigmoidsAVX2(x *float64, n int) int { panic("ad: no AVX2 kernels on this platform") }
func tanhsAVX2(x *float64, n int) int    { panic("ad: no AVX2 kernels on this platform") }
