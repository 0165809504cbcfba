package ad

// Implemented in simd_amd64.s.

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

//go:noescape
func rowDots16PackAVX2(dst, w, x *float64, cols int, panel *float64)

//go:noescape
func rowDots4PackAVX2(dst, w, x *float64, cols int, panel *float64)

//go:noescape
func rowDots16PackedAVX2(dst, w, x *float64, cols int)

//go:noescape
func rowDots4PackedAVX2(dst, w, x *float64, cols int)

//go:noescape
func windowDotsAVX2(dst, w, xT *float64, rows, cols, tp int)

//go:noescape
func gateRowsAVX2(dst, gate, xT *float64, rows *int, n, tp int)

//go:noescape
func colSumsAVX2(acc, w, d *float64, rows, cols int)

//go:noescape
func outerSumsAVX2(grad *float64, rows, cols int, terms *outer, n int)

//go:noescape
func peerDotsAVX2(dots, dy *float64, n, hidden, rows int, base *float64, stride int)

//go:noescape
func adamAVX2(data, grad, m, v *float64, n int, h *[8]float64)

//go:noescape
func sigmoidsAVX2(x *float64, n int) int

//go:noescape
func tanhsAVX2(x *float64, n int) int

// haveAVX2 reports whether the processor implements AVX2 and the operating
// system saves the YMM registers across context switches.
func haveAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: XMM and YMM state enabled.
	if lo, _ := xgetbv(); lo&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}

// haveFMA reports whether the processor implements the fused multiply-add
// instructions the gate kernels share with math.Exp.
func haveFMA() bool {
	const fma = 1 << 12
	_, _, c, _ := cpuid(1, 0)
	return c&fma != 0
}
