package layers

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/nn/ad"
)

// Step records g's step from x and hPrev on t as a trajectory of one window:
// a GRUBlock of its own, formed and with its panels reset here, as the
// shipped trajectories do a block of windows at a time.
func (g *GRUCell) Step(t *ad.Tape, x, hPrev *ad.Value) *ad.Value {
	var b GRUBlock
	b.Panels.Reset(g.Hidden)
	b.Form(g, nil, nil, [][]float64{x.Data})
	return b.Step(t, g, 0, x, hPrev)
}

// TestFusedStepMatchesReference drives Step and StepReference through an
// identical multi-step forward+backward round and compares outputs and
// parameter gradients. On amd64 (no FMA contraction by the Go compiler)
// the comparison is exact-bit; elsewhere a tight epsilon guards against
// architecture-specific expression contraction. Width 7 stays on the
// kernels' Go remainder rows; 37 = 2×16 + 4 + 1 crosses every rung of the
// row ladder on whichever implementation ad selected (ad's own
// TestFusedStepMatchesChain repeats this once per implementation).
func TestFusedStepMatchesReference(t *testing.T) {
	for _, hid := range []int{7, 37} {
		fusedStepMatchesReference(t, hid)
	}
}

func fusedStepMatchesReference(t *testing.T, hid int) {
	const in, steps = 5, 6
	rng := rand.New(rand.NewSource(42))
	g := NewGRUCell("equiv", in, hid, rng)
	ad.BindGrads(nil, g.Params())
	xs := make([][]float64, steps)
	for i := range xs {
		row := make([]float64, in)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		xs[i] = row
	}
	tgt := make([]float64, hid)
	for i := range tgt {
		tgt[i] = rng.NormFloat64()
	}

	run := func(step func(t *ad.Tape, x, h *ad.Value) *ad.Value) (out []float64, grads []float64) {
		for _, p := range g.Params() {
			clear(p.Grad)
		}
		tape := ad.NewTape()
		h := tape.Const(make([]float64, hid))
		losses := make([]*ad.Value, 0, steps)
		for _, x := range xs {
			h = step(tape, tape.Const(x), h)
			losses = append(losses, tape.SquaredError(h, tgt))
		}
		tape.Backward(tape.ScaleConst(tape.SumScalars(losses...), 1.0/steps))
		out = append(out, h.Data...)
		for _, p := range g.Params() {
			grads = append(grads, p.Grad...)
		}
		return out, grads
	}

	refOut, refGrads := run(g.StepReference)
	fusedOut, fusedGrads := run(g.Step)

	compare := func(what string, ref, fused []float64) {
		t.Helper()
		if len(ref) != len(fused) {
			t.Fatalf("%s: length %d vs %d", what, len(ref), len(fused))
		}
		for i := range ref {
			if runtime.GOARCH == "amd64" {
				if math.Float64bits(ref[i]) != math.Float64bits(fused[i]) {
					t.Errorf("%s[%d]: reference %v (%#x) vs fused %v (%#x)",
						what, i, ref[i], math.Float64bits(ref[i]), fused[i], math.Float64bits(fused[i]))
				}
			} else if diff := math.Abs(ref[i] - fused[i]); diff > 1e-12*(1+math.Abs(ref[i])) {
				t.Errorf("%s[%d]: reference %v vs fused %v (diff %g)", what, i, ref[i], fused[i], diff)
			}
		}
	}
	compare("output", refOut, fusedOut)
	compare("grad", refGrads, fusedGrads)
}

// TestFusedStepNodeCount pins the node-count reduction of the fused kernel:
// one GRU step must record a single op beyond its two Const inputs, where
// the reference chain records dozens.
func TestFusedStepNodeCount(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := NewGRUCell("count", 3, 4, rng)
	ad.BindGrads(nil, g.Params())

	count := func(step func(t *ad.Tape, x, h *ad.Value) *ad.Value) int {
		tape := ad.NewTape()
		before := tape.NumNodes()
		x := tape.Const([]float64{0.1, 0.2, 0.3})
		h := tape.Const(make([]float64, 4))
		step(tape, x, h)
		return tape.NumNodes() - before - 2 // exclude the Const inputs
	}

	if n := count(g.Step); n != 1 {
		t.Errorf("fused Step records %d nodes, want 1", n)
	}
	if n := count(g.StepReference); n < 5*count(g.Step) {
		t.Errorf("reference chain records %d nodes; expected at least 5x the fused kernel", n)
	}
}

// TestGRUBlockMatchesReference drives a GRUBlock — a masked trajectory's
// input products formed a block of five windows at a time (blocks of 5, 5
// and 1), U packed into panels by the first step — and StepReference through
// the same eleven windows behind the same API mask, forward and backward, and
// requires the final state and every gradient, the mask's included, to match
// as TestFusedStepMatchesReference does.
func TestGRUBlockMatchesReference(t *testing.T) {
	for _, hid := range []int{7, 20, 128} {
		const in, steps, block = 6, 11, 5
		rng := rand.New(rand.NewSource(int64(hid)))
		g := NewGRUCell("block", in, hid, rng)
		mask := &APIMask{M: ad.NewParam("block.mask", in, 1)}
		for i := range mask.M.Data {
			mask.M.Data[i] = rng.NormFloat64()
		}
		params := append(g.Params(), mask.Params()...)
		ad.BindGrads(nil, params)
		rows := make([][]float64, steps)
		for i := range rows {
			rows[i] = make([]float64, in)
			for j := range rows[i] {
				rows[i][j] = rng.NormFloat64()
			}
		}
		tgt := make([]float64, hid)
		for i := range tgt {
			tgt[i] = rng.NormFloat64()
		}
		run := func(useBlock bool) (out []float64) {
			for _, p := range params {
				clear(p.Grad)
			}
			var blk GRUBlock
			blk.Panels.Reset(hid)
			tape := ad.NewTape()
			h := tape.Const(make([]float64, hid))
			var losses []*ad.Value
			for i, row := range rows {
				x := mask.Apply(tape, tape.Const(row))
				if useBlock {
					if i%block == 0 {
						blk.Form(g, []int{0, 1, 2, 3, 4, 5}, blk.Gate(mask), rows[i:min(i+block, len(rows))])
					}
					h = blk.Step(tape, g, i%block, x, h)
				} else {
					h = g.StepReference(tape, x, h)
				}
				losses = append(losses, tape.SquaredError(h, tgt))
			}
			tape.Backward(tape.ScaleConst(tape.SumScalars(losses...), 1.0/steps))
			out = append(out, h.Data...)
			for _, p := range params {
				out = append(out, p.Grad...)
			}
			return out
		}
		ref, got := run(false), run(true)
		for i := range ref {
			if runtime.GOARCH == "amd64" {
				if math.Float64bits(ref[i]) != math.Float64bits(got[i]) {
					t.Fatalf("hidden %d: value %d: reference %x, block %x", hid, i, math.Float64bits(ref[i]), math.Float64bits(got[i]))
				}
			} else if diff := math.Abs(ref[i] - got[i]); diff > 1e-12*(1+math.Abs(ref[i])) {
				t.Fatalf("hidden %d: value %d: reference %v, block %v", hid, i, ref[i], got[i])
			}
		}
	}
}
