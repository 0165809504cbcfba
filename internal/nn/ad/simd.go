package ad

import "math"

// Two selectors, each decided once at start-up and assigned afterwards only
// by the package's tests, to run both implementations against each other.
//
// useAVX2 selects the hand-written amd64 kernels (simd_amd64.s) for the dense
// products over the Go loops, from what the processor and the operating
// system report.
var useAVX2 = haveAVX2()

// useAVX2Gates selects the four-lane gate activations (sigmoidsAVX2,
// tanhsAVX2) over the scalar loops. The kernels are math.Exp's FMA path and
// math.Tanh's Go source instruction for instruction, so they stand on the
// question math asks for itself — does the processor fuse multiply-adds — and
// on a probe that the answer still yields math's bits: under
// GODEBUG=cpu.fma=off math.Exp takes its other path, and a Go release that
// rewrites either function must fall back here, visibly (GateImpl), rather
// than publish different weights.
var useAVX2Gates = useAVX2 && haveFMA() && gatesMatchMath()

// gatesMatchMath runs both gate kernels over a few fixed arguments — the
// negative ones have exponentials that differ in the last bit between
// math.Exp's two paths — and reports whether every result has the scalar
// function's bits.
func gatesMatchMath() bool {
	probe := [8]float64{-500.6342656215608, -300.375, -40.520833333333336, -5.104166666666667, -1.1041666666666667, 0.1, 0.7, 30}
	s, t := probe, probe
	if sigmoidsAVX2(&s[0], len(s)) != len(s) || tanhsAVX2(&t[0], len(t)) != len(t) {
		return false
	}
	for i, x := range probe {
		if math.Float64bits(s[i]) != math.Float64bits(stableSigmoid(x)) || math.Float64bits(t[i]) != math.Float64bits(math.Tanh(x)) {
			return false
		}
	}
	return true
}

// GateImpl names the implementation behind the gate activations in this
// process, "avx2" or "go"; the daemon exports it beside KernelImpl.
func GateImpl() string {
	if useAVX2Gates {
		return "avx2"
	}
	return "go"
}

// sigmoids replaces every x[i] with stableSigmoid(x[i]), tanhs with
// math.Tanh(x[i]) — the scalar function's bits on either implementation.
func sigmoids(x []float64) { gates(x, sigmoidsAVX2, stableSigmoid) }
func tanhs(x []float64)    { gates(x, tanhsAVX2, math.Tanh) }

// gates applies an activation in place: whole groups of four through the
// assembly where it is selected, the len(x)%4 tail and everything else
// through the scalar function. The assembly stops in front of a group it does
// not cover (a NaN; for the sigmoid a magnitude above 700) and says how far
// it came; that group goes through the scalar function and the assembly takes
// over behind it.
func gates(x []float64, avx2 func(*float64, int) int, scalar func(float64) float64) {
	i := 0
	if useAVX2Gates {
		for n := len(x) &^ 3; i < n; {
			i += avx2(&x[i], n-i)
			for end := min(i+4, n); i < end; i++ {
				x[i] = scalar(x[i])
			}
		}
	}
	for ; i < len(x); i++ {
		x[i] = scalar(x[i])
	}
}

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
	// A last row goes four windows at a time: four chains, each its own.
	for ; r < rows; r++ {
		for t := 0; t < tp; t += 4 {
			var s0, s1, s2, s3 float64
			for k, wv := range w[r*cols : (r+1)*cols] {
				x := xT[k*tp+t:][:4]
				s0 += wv * x[0]
				s1 += wv * x[1]
				s2 += wv * x[2]
				s3 += wv * x[3]
			}
			dst[r*tp+t], dst[r*tp+t+1], dst[r*tp+t+2], dst[r*tp+t+3] = s0, s1, s2, s3
		}
	}
}

// gateRows writes dst[k*tp+t] = gate[k]·xT[k*tp+t] for every row k of gate:
// the mask's σ(m) ⊙ x over a block of windows laid out as WindowDots reads
// them, tp a multiple of four. dst may be xT. Each float is one product, so
// the bits are the same on either implementation.
func gateRows(dst, gate, xT []float64, tp int) {
	if tp%4 != 0 {
		panic("ad: gateRows: window count not padded to a multiple of four")
	}
	n := len(gate) * tp
	dst, xT = dst[:n], xT[:n]
	if useAVX2 && n > 0 {
		gateRowsAVX2(&dst[0], &gate[0], &xT[0], len(gate), tp)
		return
	}
	for k, m := range gate {
		for t, x := range xT[k*tp : (k+1)*tp] {
			dst[k*tp+t] = m * x
		}
	}
}
