package ad

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// checkGates holds sigmoids and tanhs, on the selected implementation, to
// stableSigmoid and math.Tanh: every result Float64bits-equal, a NaN's sign
// and payload included (the assembly hands a NaN to the scalar function, so
// nothing is left to the hardware's choice), and nothing written outside the
// slice. vals start off elements into their array and sit between four guard
// floats a side.
func checkGates(t *testing.T, vals []float64, off int) {
	t.Helper()
	for _, g := range []struct {
		name   string
		slice  func([]float64)
		scalar func(float64) float64
	}{{"sigmoids", sigmoids, stableSigmoid}, {"tanhs", tanhs, math.Tanh}} {
		buf := make([]float64, off+len(vals)+8)[off:]
		for i := range buf {
			buf[i] = 0.3 // a guard the assembly would visibly replace
		}
		x := buf[4 : len(buf)-4]
		copy(x, vals)
		g.slice(x)
		for i, v := range vals {
			if got, want := math.Float64bits(x[i]), math.Float64bits(g.scalar(v)); got != want {
				t.Fatalf("%s %s of %d+%d: [%d] = %v (%#x): %#x, want %#x", GateImpl(), g.name, len(vals), off, i, v, math.Float64bits(v), got, want)
			}
		}
		for i, v := range buf {
			if (i < 4 || i >= len(buf)-4) && v != 0.3 {
				t.Fatalf("%s %s of %d+%d wrote outside its slice (guard %d)", GateImpl(), g.name, len(vals), off, i)
			}
		}
	}
}

// gateEdges are the arguments at which a gate changes form or leaves the
// range the assembly covers, each with its neighbours either side and its
// negation: the two thresholds of math.tanh, the sigmoid's hand-off at 700,
// the arguments whose exponential is the last normal number, a subnormal,
// the last subnormal and zero, the overflow of exp, and the non-finite values.
func gateEdges() []float64 {
	const halfMaxLog = 0.5 * 8.8029691931113054295988e+01
	var out []float64
	for _, v := range []float64{0, math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-540, 1e-9, 0.5, 0.625, 1, 18.5, 37, halfMaxLog,
		88.029691931113054295988, 700, 708.39, 708.3964185322641, 709.78, 709.782712893384, 720, 744.44, 745.2, 1e10, math.MaxFloat64} {
		for _, n := range []float64{math.Nextafter(v, 0), v, math.Nextafter(v, math.Inf(1))} {
			out = append(out, n, -n)
		}
	}
	return append(out, math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(),
		math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000abcdef))
}

// gateDraws returns n arguments: normal draws at the scales a pre-activation
// takes, one in eight a raw bit pattern, and one in eight from [−700, −40),
// where the sigmoid is the exponential itself to the last bit — a rounding
// that differs in the kernel's exp shows there undamped by the division.
func gateDraws(n int, rng *rand.Rand) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch rng.Intn(8) {
		case 0:
			v[i] = math.Float64frombits(rng.Uint64())
		case 1:
			v[i] = 40 * rng.NormFloat64()
		case 2:
			v[i] = 400 * rng.NormFloat64()
		case 3:
			v[i] = -40 - 660*rng.Float64()
		default:
			v[i] = 2 * rng.NormFloat64()
		}
	}
	return v
}

// TestGatesMatchScalar is the wall for the gate activations, on every
// implementation: every length around the four-lane group and the engine's
// widths at odd offsets; every edge argument in every lane of a group between
// two groups of ordinary ones (a hand-off to the scalar function must replace
// that group and no other value); every edge beside every other; and random
// rounds.
func TestGatesMatchScalar(t *testing.T) {
	for _, impl := range impls() {
		t.Run(impl, func(t *testing.T) {
			setImpl(t, impl)
			rng := rand.New(rand.NewSource(24))
			for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 128, 131} {
				for _, off := range []int{1, 3} {
					checkGates(t, gateDraws(n, rng), off)
				}
			}
			edges := gateEdges()
			for _, e := range edges {
				for lane := 0; lane < 4; lane++ {
					vals := make([]float64, 13)
					for i := range vals {
						vals[i] = 3 * rng.NormFloat64()
					}
					vals[4+lane] = e
					checkGates(t, vals, 1)
				}
			}
			checkGates(t, edges, 1)
			checkGates(t, edges[1:], 2)
			rounds := 20000
			if testing.Short() {
				rounds = 2000
			}
			for r := 0; r < rounds; r++ {
				checkGates(t, gateDraws(16+r%5, rng), r%4)
			}
		})
	}
}

// TestGateProbeSelectsAVX2: where the dense kernels are the assembly and the
// processor fuses multiply-adds, the start-up probe must have selected the
// four-lane gates — a toolchain whose math.Exp or math.Tanh no longer has the
// kernels' bits fails here instead of serving at the scalar loops' speed —
// and where math.Exp runs without FMA it must not have.
func TestGateProbeSelectsAVX2(t *testing.T) {
	if gatesExpected && !gatesAtStart {
		t.Fatal("AVX2 and FMA present but the probe chose the scalar gates: math.Exp or math.Tanh no longer has the kernels' bits")
	}
	if gatesAtStart && strings.Contains(os.Getenv("GODEBUG"), "cpu.fma=off") {
		t.Fatal("the probe chose the FMA gate kernels although math.Exp runs without FMA")
	}
}

// BenchmarkGates times one gate's activations in place (a copy of the
// pre-activations included) at the paper's width, at half of it and at the
// generated topology's, on each implementation.
func BenchmarkGates(b *testing.B) {
	for _, g := range []struct {
		name  string
		slice func([]float64)
	}{{"sigmoid", sigmoids}, {"tanh", tanhs}} {
		for _, n := range []int{128, 64, 16} {
			for _, impl := range impls() {
				b.Run(fmt.Sprintf("%s/%d/%s", g.name, n, impl), func(b *testing.B) {
					setImpl(b, impl)
					rng := rand.New(rand.NewSource(1))
					pre := make([]float64, n)
					for i := range pre {
						pre[i] = 2 * rng.NormFloat64()
					}
					x := make([]float64, n)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						copy(x, pre)
						g.slice(x)
					}
					benchSink = x[0]
				})
			}
		}
	}
}
