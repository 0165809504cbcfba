package ad

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestGRUKernelMatchesTapeStep drives the tape-free kernel and the fused
// tape op through the same multi-step recurrence and requires bit-identical
// hidden states at every step — the contract the inference engine's
// snapshot path is built on. The widths walk the row-panel remainder
// (5, 6, 7 = one panel plus 1, 2, 3 rows) and the paper's 128.
func TestGRUKernelMatchesTapeStep(t *testing.T) {
	for _, hid := range []int{5, 6, 7, 128} {
		t.Run(fmt.Sprintf("hidden=%d", hid), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			in := 9
			p := newTestGRU(in, hid, rng)
			k := p.Kernel()

			const steps = 12
			xs := make([][]float64, steps)
			for i := range xs {
				xs[i] = make([]float64, in)
				for j := range xs[i] {
					xs[i][j] = rng.NormFloat64()
				}
			}

			tape := NewEvalTape()
			tapeH := make([]float64, hid)
			kernH := make([]float64, hid)
			kernNext := make([]float64, hid)
			scratch := make([]float64, k.ScratchLen())
			for s, x := range xs {
				h := tape.Const(tapeH)
				xt := tape.Const(x)
				h = tape.GRUStep(p, xt, h)
				copy(tapeH, h.Data)
				tape.Reset()

				k.Step(x, kernH, kernNext, scratch)
				kernH, kernNext = kernNext, kernH

				for i := range tapeH {
					if math.Float64bits(tapeH[i]) != math.Float64bits(kernH[i]) {
						t.Fatalf("step %d: h[%d] diverged: tape %x kernel %x", s, i,
							math.Float64bits(tapeH[i]), math.Float64bits(kernH[i]))
					}
				}
			}
		})
	}
}

// TestMatVecMatchesRowDots is the independent oracle for the row-panel
// kernels: engine-vs-tape and fused-vs-reference comparisons share dot4 on
// both sides, so this one pins matVec and gatePre to a plain per-row dot
// loop, bit for bit, across panel counts, remainders and the edge values
// whose sums are order- and sign-sensitive. NaN is compared as a class:
// when two NaNs meet in an add the hardware keeps one operand's sign and
// payload, IEEE 754 leaves which one open, and the compiler orders the
// operands per loop — no Go source can pin it.
func TestMatVecMatchesRowDots(t *testing.T) {
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	// Each edge set replaces a random share of the normal draws: signed
	// zeros and subnormals often (sums stay finite, so signs of zero and
	// gradual underflow are compared exactly), non-finite values rarely
	// (so most rows still end finite or ±Inf beside the ones that go NaN).
	edges := []struct {
		vals  []float64
		oneIn int
	}{
		{nil, 0},
		{[]float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1040}, 2},
		{[]float64{math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64, 0, math.Copysign(0, -1)}, 24},
	}
	fill := func(v []float64, rng *rand.Rand, vals []float64, oneIn int) {
		for i := range v {
			if oneIn > 0 && rng.Intn(oneIn) == 0 {
				v[i] = vals[rng.Intn(len(vals))]
			} else {
				v[i] = rng.NormFloat64()
			}
		}
	}
	for _, rows := range []int{1, 2, 3, 4, 5, 7, 8, 16, 128} {
		for _, cols := range []int{1, 2, 67, 128, 257} {
			for set, e := range edges {
				rng := rand.New(rand.NewSource(int64(rows*1000 + cols)))
				w := make([]float64, rows*cols)
				u := make([]float64, rows*rows)
				x := make([]float64, cols)
				h := make([]float64, rows)
				b := make([]float64, rows)
				fill(w, rng, e.vals, e.oneIn)
				fill(u, rng, e.vals, e.oneIn)
				fill(x, rng, e.vals, e.oneIn)
				fill(h, rng, e.vals, e.oneIn)
				fill(b, rng, nil, 0)

				got := make([]float64, rows)
				matVec(got, w, x)
				for i := range got {
					want := dot(w[i*cols:(i+1)*cols], x)
					if !same(got[i], want) {
						t.Fatalf("matVec %dx%d edges=%d row %d: %x, want %x", rows, cols, set, i,
							math.Float64bits(got[i]), math.Float64bits(want))
					}
				}

				gatePre(got, w, x, u, h, b)
				for i := range got {
					want := (dot(w[i*cols:(i+1)*cols], x) + dot(u[i*rows:(i+1)*rows], h)) + b[i]
					if !same(got[i], want) {
						t.Fatalf("gatePre %dx%d edges=%d row %d: %x, want %x", rows, cols, set, i,
							math.Float64bits(got[i]), math.Float64bits(want))
					}
				}
			}
		}
	}
}

var benchSink float64

// BenchmarkGRUKernelStep times one recurrence step at the widths the repo
// benchmark runs: social at the paper's width (67 features, 128 hidden),
// the generated 150-component topology (257 features, 16 hidden) and the
// toy fixture.
func BenchmarkGRUKernelStep(b *testing.B) {
	for _, dim := range []struct{ in, hid int }{{67, 128}, {257, 16}, {9, 4}} {
		b.Run(fmt.Sprintf("%dx%d", dim.in, dim.hid), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			k := newTestGRU(dim.in, dim.hid, rng).Kernel()
			x := make([]float64, dim.in)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			h := make([]float64, dim.hid)
			next := make([]float64, dim.hid)
			scratch := make([]float64, k.ScratchLen())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Step(x, h, next, scratch)
				h, next = next, h
			}
			benchSink = h[0]
		})
	}
}
