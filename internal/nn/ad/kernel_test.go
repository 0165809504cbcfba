package ad

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// impls lists the kernel implementations this machine can run: the Go
// loops always, the AVX2 assembly where the selector found it.
func impls() []string {
	if haveAVX2() {
		return []string{"go", "avx2"}
	}
	return []string{"go"}
}

// gatesAtStart is what the start-up probe decided, before any test flips it;
// gatesExpected is what it has to decide on this host: the four-lane gates
// wherever the processor fuses multiply-adds and no cpu.* GODEBUG setting can
// have sent math.Exp down its other path.
var (
	gatesAtStart  = useAVX2Gates
	gatesExpected = haveAVX2() && haveFMA() && !strings.Contains(os.Getenv("GODEBUG"), "cpu.")
)

// setImpl flips the package's kernel selectors for the rest of the test. The
// four-lane gates go with "avx2" where the probe chose them — and where it
// should have, so a kernel it rejects fails the wall by value instead of
// passing on the fallback. Elsewhere (GODEBUG=cpu.fma=off) both
// implementations run the scalar gates, as the daemon would.
func setImpl(tb testing.TB, impl string) {
	tb.Helper()
	prev, prevGates := useAVX2, useAVX2Gates
	tb.Cleanup(func() { useAVX2, useAVX2Gates = prev, prevGates })
	useAVX2 = impl == "avx2"
	useAVX2Gates = useAVX2 && (gatesAtStart || gatesExpected)
	if KernelImpl() != impl {
		tb.Fatalf("KernelImpl() = %q after selecting %q", KernelImpl(), impl)
	}
}

// TestGRUKernelMatchesTapeStep drives the tape-free kernel and the fused
// tape op through the same multi-step recurrence and requires bit-identical
// hidden states at every step — the contract the inference engine's
// snapshot path is built on — once per kernel implementation, each against
// the trajectory one-window tape steps (GRUStep, arena_test.go) record on
// the Go loops. The kernel runs with and without Panels; the tape also runs
// as a shipped trajectory does (GRUStepAt), from a block's gated input
// products and its own panels. Eleven steps leave padding lanes in the
// block. The widths walk the row ladder (4 = one four-row panel, 5, 6, 7 = a panel plus 1, 2, 3 rows,
// 20 = 16 + 4, 37 = 2×16 + 4 + 1) and the paper's 128.
func TestGRUKernelMatchesTapeStep(t *testing.T) {
	for _, hid := range []int{4, 5, 6, 7, 20, 37, 128} {
		t.Run(fmt.Sprintf("hidden=%d", hid), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			in := 9
			p := newTestGRU(in, hid, rng)

			const steps, tp = 11, 12
			gate := fillAt(in, 0, rng, nil, 0)
			xs := make([][]float64, steps) // the gated inputs, gate[k]·x[k]
			xT := make([]float64, in*tp)   // the raw inputs, time-minor
			for s := range xs {
				xs[s] = make([]float64, in)
				for k := range xs[s] {
					xT[k*tp+s] = rng.NormFloat64()
					xs[s][k] = gate[k] * xT[k*tp+s]
				}
			}
			tapeRun := func(block bool) [][]float64 {
				tape := NewEvalTape()
				var wx []float64
				var up Panels
				if block {
					wx = make([]float64, 3*hid*tp)
					p.InputProducts(wx, make([]float64, in*tp), xT, every(in), gate, tp)
					up.Reset(hid)
				}
				h := make([]float64, hid)
				out := make([][]float64, steps)
				for s, x := range xs {
					if block {
						copy(h, tape.GRUStepAt(p, tape.Const(x), tape.Const(h), wx, tp, s, &up).Data)
					} else {
						copy(h, tape.GRUStep(p, tape.Const(x), tape.Const(h)).Data)
					}
					tape.Reset()
					out[s] = append([]float64(nil), h...)
				}
				return out
			}
			setImpl(t, "go")
			want := tapeRun(false)

			for _, impl := range impls() {
				t.Run(impl, func(t *testing.T) {
					setImpl(t, impl)
					check := func(what string, s int, got []float64) {
						t.Helper()
						for i := range want[s] {
							if w := math.Float64bits(want[s][i]); math.Float64bits(got[i]) != w {
								t.Fatalf("%s: step %d: h[%d] diverged: go tape %x, %s %x", what, s, i, w, impl, math.Float64bits(got[i]))
							}
						}
					}
					for s, h := range tapeRun(false) {
						check("lone-step tape", s, h)
					}
					for s, h := range tapeRun(true) {
						check("block tape", s, h)
					}
					// The kernel steps from the same block's products; without
					// panels every step reads U where it lies, with them the
					// first step packs U and the other ten read it.
					wx := make([]float64, 3*hid*tp)
					p.InputProducts(wx, make([]float64, in*tp), xT, every(in), gate, tp)
					for _, up := range []*Panels{nil, new(Panels)} {
						if up != nil {
							up.Reset(hid)
						}
						kernH := make([]float64, hid)
						kernNext := make([]float64, hid)
						scratch := make([]float64, 3*hid)
						for s := range xs {
							p.Step(wx, tp, s, kernH, kernNext, scratch, up)
							kernH, kernNext = kernNext, kernH
							check(fmt.Sprintf("kernel, panels %t", up != nil), s, kernH)
						}
					}
				})
			}
		})
	}
}

// TestChunkStepMatchesChain holds a training chunk's steps (GRUStepAt, on a
// block's input products and panels packed by the chunk's first step) to the
// chain of primitive ops the fused op replaces, over two chunks of 11 and 6
// windows with a parameter update between them — what the second chunk's
// products and panels must see: the final state, every input's and every
// parameter's gradient, bit for bit, once per kernel implementation, against
// the chain on the Go loops.
func TestChunkStepMatchesChain(t *testing.T) {
	const in = 5
	chunks := []int{11, 6}
	for _, hid := range []int{7, 20, 128} {
		t.Run(fmt.Sprintf("hidden=%d", hid), func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			g := newTestGRU(in, hid, rng)
			params := []*Param{g.Wz, g.Uz, g.Bz, g.Wk, g.Uk, g.Bk, g.Wh, g.Uh, g.Bh}
			var start [][]float64
			for _, p := range params {
				start = append(start, append([]float64(nil), p.Data...))
			}
			xs := make([][]float64, 17)
			for i := range xs {
				xs[i] = fillAt(in, 0, rng, nil, 0)
			}
			tgt := fillAt(hid, 0, rng, nil, 0)
			chain := func(t *Tape, x, h *Value) *Value {
				gate := func(w, u, b *Param, h *Value) *Value {
					return t.Add(t.Add(t.MatVec(t.Use(w), x), t.MatVec(t.Use(u), h)), t.Use(b))
				}
				z := t.Sigmoid(gate(g.Wz, g.Uz, g.Bz, h))
				k := t.Sigmoid(gate(g.Wk, g.Uk, g.Bk, h))
				c := t.Tanh(gate(g.Wh, g.Uh, g.Bh, t.Mul(k, h)))
				return t.Add(t.Mul(z, h), t.Mul(t.OneMinus(z), c))
			}
			run := func(block bool) []float64 {
				for i, p := range params {
					copy(p.Data, start[i])
				}
				var out []float64
				var up Panels
				from := 0
				for _, n := range chunks {
					rows := xs[from : from+n]
					from += n
					tp := (n + 3) &^ 3
					wx := make([]float64, 3*hid*tp)
					if block {
						xT := make([]float64, in*tp)
						for s, x := range rows {
							for k, v := range x {
								xT[k*tp+s] = v
							}
						}
						g.InputProducts(wx, nil, xT, nil, nil, tp)
						up.Reset(hid)
					}
					for _, p := range params {
						clear(p.Grad)
					}
					tape := NewTape()
					h := tape.Const(make([]float64, hid))
					var xv, losses []*Value
					for s, x := range rows {
						xv = append(xv, tape.Const(x))
						if block {
							h = tape.GRUStepAt(g, xv[s], h, wx, tp, s, &up)
						} else {
							h = chain(tape, xv[s], h)
						}
						losses = append(losses, tape.SquaredError(h, tgt))
					}
					tape.Backward(tape.ScaleConst(tape.SumScalars(losses...), 1/float64(n)))
					out = append(out, h.Data...)
					for _, v := range xv {
						out = append(out, v.Grad...)
					}
					for _, p := range params {
						out = append(out, p.Grad...)
						for i, gr := range p.Grad {
							p.Data[i] -= 0.1 * gr
						}
					}
				}
				return out
			}
			setImpl(t, "go")
			want := run(false)
			for _, impl := range impls() {
				t.Run(impl, func(t *testing.T) {
					setImpl(t, impl)
					for _, block := range []bool{false, true} {
						for i, v := range run(block) {
							if math.Float64bits(v) != math.Float64bits(want[i]) {
								t.Fatalf("block %t: value %d: %x, want %x", block, i, math.Float64bits(v), math.Float64bits(want[i]))
							}
						}
					}
				})
			}
		})
	}
}

// TestFusedStepMatchesChain holds the fused GRUStep to the chain of
// primitive ops it replaces (layers.GRUCell.StepReference, spelled out here
// because only this package can flip the selector): hidden state and every
// parameter gradient bit-equal, once per kernel implementation, at a width
// that crosses all three rungs of the row ladder.
func TestFusedStepMatchesChain(t *testing.T) {
	const in, hid, steps = 5, 37, 4
	rng := rand.New(rand.NewSource(42))
	g := newTestGRU(in, hid, rng)
	params := []*Param{g.Wz, g.Uz, g.Bz, g.Wk, g.Uk, g.Bk, g.Wh, g.Uh, g.Bh}
	xs := make([][]float64, steps)
	for i := range xs {
		xs[i] = make([]float64, in)
		for j := range xs[i] {
			xs[i][j] = rng.NormFloat64()
		}
	}
	tgt := make([]float64, hid)
	for i := range tgt {
		tgt[i] = rng.NormFloat64()
	}
	chain := func(t *Tape, x, h *Value) *Value {
		gate := func(w, u, b *Param, h *Value) *Value {
			return t.Add(t.Add(t.MatVec(t.Use(w), x), t.MatVec(t.Use(u), h)), t.Use(b))
		}
		z := t.Sigmoid(gate(g.Wz, g.Uz, g.Bz, h))
		k := t.Sigmoid(gate(g.Wk, g.Uk, g.Bk, h))
		c := t.Tanh(gate(g.Wh, g.Uh, g.Bh, t.Mul(k, h)))
		return t.Add(t.Mul(z, h), t.Mul(t.OneMinus(z), c))
	}
	fused := func(t *Tape, x, h *Value) *Value { return t.GRUStep(g, x, h) }
	run := func(step func(t *Tape, x, h *Value) *Value) []float64 {
		for _, p := range params {
			clear(p.Grad)
		}
		tape := NewTape()
		h := tape.Const(make([]float64, hid))
		var losses []*Value
		for _, x := range xs {
			h = step(tape, tape.Const(x), h)
			losses = append(losses, tape.SquaredError(h, tgt))
		}
		tape.Backward(tape.ScaleConst(tape.SumScalars(losses...), 1.0/steps))
		out := append([]float64(nil), h.Data...)
		for _, p := range params {
			out = append(out, p.Grad...)
		}
		return out
	}
	setImpl(t, "go")
	want := run(chain)
	for _, impl := range impls() {
		t.Run(impl, func(t *testing.T) {
			setImpl(t, impl)
			for name, step := range map[string]func(t *Tape, x, h *Value) *Value{"chain": chain, "fused": fused} {
				for i, v := range run(step) {
					if math.Float64bits(v) != math.Float64bits(want[i]) {
						t.Fatalf("%s: value %d: %x, want %x", name, i, math.Float64bits(v), math.Float64bits(want[i]))
					}
				}
			}
		})
	}
}

// sameFloat is bit equality with NaN compared as a class: when two NaNs
// meet in an add the hardware keeps one operand's sign and payload, IEEE 754
// leaves which one open, and the compiler orders the operands per loop — no
// Go source can pin it.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// edgeSets are the value classes whose sums are order- and sign-sensitive.
// Each set replaces a random share (one draw in oneIn) of the normal draws:
// signed zeros and subnormals often (sums stay finite, so signs of zero and
// gradual underflow are compared exactly), non-finite values rarely (so most
// sums still end finite or ±Inf beside the ones that go NaN).
var edgeSets = []struct {
	vals  []float64
	oneIn int
}{
	{nil, 0},
	{[]float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1040}, 2},
	{[]float64{math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64, 0, math.Copysign(0, -1)}, 24},
}

// fillAt returns n floats drawn from rng (edge values mixed in as edgeSets
// describes) that start off elements into their backing array, so the
// assembly's loads are not 32-byte aligned.
func fillAt(n, off int, rng *rand.Rand, vals []float64, oneIn int) []float64 {
	v := make([]float64, off+n)[off:]
	for i := range v {
		if oneIn > 0 && rng.Intn(oneIn) == 0 {
			v[i] = vals[rng.Intn(len(vals))]
		} else {
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

// checkRowKernels holds matVec (the Go loops), packedMatVec's pack and
// packed passes (the AVX2 row kernels where they are selected), gatePre on
// either and — for each series length in windows — WindowDots, on the
// selected implementation, to a plain per-row dot loop, bit for bit.
func checkRowKernels(t *testing.T, rows, cols, off int, rng *rand.Rand, vals []float64, oneIn int, windows ...int) {
	t.Helper()
	w := fillAt(rows*cols, off, rng, vals, oneIn)
	u := fillAt(rows*rows, off+1, rng, vals, oneIn)
	x := fillAt(cols, off+2, rng, vals, oneIn)
	h := fillAt(rows, off, rng, vals, oneIn)
	b := fillAt(rows, off+1, rng, nil, 0)
	got := make([]float64, off+rows)[off:]

	matVec(got, w, x)
	for i := range got {
		if want := dot(w[i*cols:(i+1)*cols], x); !sameFloat(got[i], want) {
			t.Fatalf("%s matVec %dx%d+%d row %d: %x, want %x", KernelImpl(), rows, cols, off, i,
				math.Float64bits(got[i]), math.Float64bits(want))
		}
	}
	checkPanels(t, got, w, x, rows, cols, off, rng)
	// The input product reaches gatePre as a strided column of a series'
	// products: here every third float of wx. U·h goes through the Go loops
	// without a panel, and through the pack and then the packed rungs with
	// one.
	wx := fillAt(3*rows, off+2, rng, nil, 0)
	for i := 0; i < rows; i++ {
		wx[3*i] = dot(w[i*cols:(i+1)*cols], x)
	}
	panel := make([]float64, off+rows*rows)[off:]
	for pass, p := range []struct {
		panel  []float64
		packed bool
	}{{nil, false}, {panel, false}, {panel, true}} {
		gatePre(got, wx, 3, u, h, b, p.panel, p.packed)
		for i := range got {
			want := (dot(w[i*cols:(i+1)*cols], x) + dot(u[i*rows:(i+1)*rows], h)) + b[i]
			if !sameFloat(got[i], want) {
				t.Fatalf("%s gatePre pass %d %dx%d+%d row %d: %x, want %x", KernelImpl(), pass, rows, cols, off, i,
					math.Float64bits(got[i]), math.Float64bits(want))
			}
		}
	}

	for _, T := range windows {
		what := fmt.Sprintf("%s WindowDots %dx%d+%d over %d windows", KernelImpl(), rows, cols, off, T)
		tp := (T + 3) &^ 3
		xT := fillAt(cols*tp, off+1, rng, vals, oneIn)
		for k := 0; k < cols; k++ {
			clear(xT[k*tp+T : (k+1)*tp]) // the padding windows
		}
		// dst holds stale values and sits between four guard floats a side.
		buf := fillAt(rows*tp+8, off+2, rng, nil, 0)
		stale := cloneAt(buf, 0)
		dst := buf[4 : len(buf)-4]
		WindowDots(dst, w, xT, rows, cols, tp)
		xt := make([]float64, cols)
		for s := 0; s < T; s++ {
			for k := range xt {
				xt[k] = xT[k*tp+s]
			}
			for r := 0; r < rows; r++ {
				if want := dot(w[r*cols:(r+1)*cols], xt); !sameFloat(dst[r*tp+s], want) {
					t.Fatalf("%s: row %d window %d: %x, want %x", what, r, s,
						math.Float64bits(dst[r*tp+s]), math.Float64bits(want))
				}
			}
		}
		for i, g := range buf {
			if (i < 4 || i >= len(buf)-4) && math.Float64bits(g) != math.Float64bits(stale[i]) {
				t.Fatalf("%s: wrote outside its rows×tp floats (guard %d)", what, i)
			}
		}
		// An operand whose array ends before the shape does, or windows not
		// padded to the lanes, must panic in Go, whatever the implementation.
		if len(dst) == 0 || cols == 0 {
			continue
		}
		for name, call := range map[string]func(){
			"short w":   func() { WindowDots(dst, w[:len(w)-1:len(w)-1], xT, rows, cols, tp) },
			"short xT":  func() { WindowDots(dst, w, xT[:len(xT)-1:len(xT)-1], rows, cols, tp) },
			"short dst": func() { WindowDots(dst[:len(dst)-1:len(dst)-1], w, xT, rows, cols, tp) },
			"odd tp":    func() { WindowDots(dst, w, xT, rows, cols, tp-1) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s: %s did not panic", what, name)
					}
				}()
				call()
			}()
		}
	}
}

// refPanels is the panel layout the pack kernels store for the rungs of the
// rows×cols matrix w (see simd_amd64.s): sixteen rows (four groups) a panel
// while sixteen are left, then four (one group); per block of four columns
// each group's four columns in turn, then per tail column each group's one
// column. Rows below the last rung have no panel; their floats stay zero.
func refPanels(w []float64, rows, cols int) []float64 {
	p := make([]float64, rows*cols)
	for i := 0; i+4 <= rows; {
		groups := 1
		if i+16 <= rows {
			groups = 4
		}
		out := p[i*cols : i*cols]
		column := func(g, j int) {
			for r := 0; r < 4; r++ {
				out = append(out, w[(i+4*g+r)*cols+j])
			}
		}
		for j := 0; j+4 <= cols; j += 4 {
			for g := 0; g < groups; g++ {
				for c := j; c < j+4; c++ {
					column(g, c)
				}
			}
		}
		for j := cols &^ 3; j < cols; j++ {
			for g := 0; g < groups; g++ {
				column(g, j)
			}
		}
		i += 4 * groups
	}
	return p
}

// checkPanels holds packedMatVec's pack pass and packed pass to dot, bit for
// bit: the pack pass reads w and stores exactly refPanels' floats and nothing
// outside them — on the Go loops, nothing at all — and the packed pass reads
// the rungs' rows from the panels alone, so it is handed a w whose rung rows
// are poisoned wherever the assembly runs. A panel buffer shorter than the
// matrix must panic in Go.
func checkPanels(t *testing.T, got, w, x []float64, rows, cols, off int, rng *rand.Rand) {
	t.Helper()
	rungs := rows &^ 3
	if !useAVX2 {
		rungs = 0
	}
	buf := fillAt(rows*cols+8, off+3, rng, nil, 0)
	stale := cloneAt(buf, 0)
	panel := buf[4 : len(buf)-4]
	ref := refPanels(w, rows, cols)
	check := func(pass string) {
		for i := range got {
			if want := dot(w[i*cols:(i+1)*cols], x); !sameFloat(got[i], want) {
				t.Fatalf("%s %s %dx%d+%d row %d: %x, want %x", KernelImpl(), pass, rows, cols, off, i,
					math.Float64bits(got[i]), math.Float64bits(want))
			}
		}
	}
	packedMatVec(got, w, x, panel, false)
	check("pack")
	for i, v := range buf {
		want := stale[i]
		if i >= 4 && i < 4+rungs*cols {
			want = ref[i-4]
		}
		if math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("%s pack %dx%d+%d: panel float %d is %x, want %x", KernelImpl(), rows, cols, off, i-4,
				math.Float64bits(v), math.Float64bits(want))
		}
	}
	wp := cloneAt(w, off)
	for i := range wp[:rungs*cols] {
		wp[i] = math.Float64frombits(0x7ff8dead0000beef)
	}
	packedMatVec(got, wp, x, panel, true)
	check("packed")
	if useAVX2 && rows > 0 && cols > 0 {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s %dx%d: a short panel buffer did not panic", KernelImpl(), rows, cols)
				}
			}()
			packedMatVec(got, w, x, panel[:len(panel)-1:len(panel)-1], true)
		}()
	}
}

// TestMatVecMatchesRowDots is the independent oracle for the row kernels:
// engine-vs-tape and fused-vs-reference comparisons run the same kernel on
// both sides, so this one pins matVec, the pack/packed pair, gatePre and
// WindowDots to a plain per-row dot loop, bit for bit, on every
// implementation: across every rung of the row ladder and its remainders, column counts on both sides of the
// assembly's four-column block (and none at all, which must stay in Go),
// series that fill one, two and three lane groups, leave padding lanes (1, 3,
// 5, 6, 13) or take more than one pass of three groups (13, 48), operands
// that start at odd elements, and the edge values.
func TestMatVecMatchesRowDots(t *testing.T) {
	for _, impl := range impls() {
		t.Run(impl, func(t *testing.T) {
			setImpl(t, impl)
			for _, rows := range []int{1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 20, 31, 32, 33, 37, 128} {
				for _, cols := range []int{0, 1, 2, 3, 4, 5, 9, 67, 128, 257} {
					for set, e := range edgeSets {
						rng := rand.New(rand.NewSource(int64(rows*1000 + cols)))
						checkRowKernels(t, rows, cols, 1+2*set, rng, e.vals, e.oneIn, 1, 3, 4, 5, 6, 12, 13, 48)
					}
				}
			}
		})
	}
}

// checkGateRows holds gateRows, on the selected implementation, to its loop
// — x̃[k·tp+t] = gate[k]·x[r_k·tp+t], r_k row k's source — bit for bit, over
// every row in order and every other row backwards, over rows of T windows
// padded to the lanes, and requires a window count off the lanes to panic.
func checkGateRows(t *testing.T, rows, T, off int, rng *rand.Rand, vals []float64, oneIn int) {
	t.Helper()
	tp := (T + 3) &^ 3
	gate := fillAt(rows, off, rng, vals, oneIn)
	xT := fillAt(rows*tp, off+1, rng, vals, oneIn)
	var picked []int // every other row, last first
	for r := rows - 1; r >= 0; r -= 2 {
		picked = append(picked, r)
	}
	what := fmt.Sprintf("%s gateRows %d rows × %d windows +%d", KernelImpl(), rows, T, off)
	for _, c := range []struct {
		name string
		src  []int
		gate []float64
	}{{"every row", every(rows), gate}, {"gathered", picked, gate[:len(picked)]}} {
		want := make([]float64, len(c.src)*tp)
		for k, r := range c.src {
			for i, x := range xT[r*tp : (r+1)*tp] {
				want[k*tp+i] = c.gate[k] * x
			}
		}
		// dst sits between four guard floats a side.
		buf := fillAt(len(want)+8, off+2, rng, nil, 0)
		stale := cloneAt(buf, 0)
		gateRows(buf[4:len(buf)-4], c.gate, xT, c.src, tp)
		for i, g := range buf {
			if i < 4 || i >= len(buf)-4 {
				if math.Float64bits(g) != math.Float64bits(stale[i]) {
					t.Fatalf("%s %s: wrote outside its rows×tp floats (guard %d)", what, c.name, i)
				}
			} else if !sameFloat(g, want[i-4]) {
				t.Fatalf("%s %s: float %d: %x, want %x", what, c.name, i-4, math.Float64bits(g), math.Float64bits(want[i-4]))
			}
		}
	}
	if rows == 0 {
		return
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: a window count off the lanes did not panic", what)
		}
	}()
	gateRows(make([]float64, len(xT)), gate, xT, every(rows), tp-1)
}

// every lists 0, 1, …, n−1: a cell that reads every row.
func every(n int) []int {
	out := make([]int, n)
	for k := range out {
		out[k] = k
	}
	return out
}

// TestGateRowsMatchesLoop runs checkGateRows on every implementation over
// the feature widths the repo benchmark runs (67, 257), the toy's and a few
// small ones, each over series that are empty, fill one lane group, leave
// padding lanes, take more than one sixteen-window step, or a whole block.
func TestGateRowsMatchesLoop(t *testing.T) {
	for _, impl := range impls() {
		t.Run(impl, func(t *testing.T) {
			setImpl(t, impl)
			for _, rows := range []int{0, 1, 2, 9, 67, 257} {
				for _, T := range []int{0, 1, 4, 5, 6, 12, 13, 16, 17, 48} {
					for set, e := range edgeSets {
						checkGateRows(t, rows, T, 1+2*set, rand.New(rand.NewSource(int64(rows*100+T))), e.vals, e.oneIn)
					}
				}
			}
		})
	}
}

// FuzzKernelsMatchScalar lets the fuzzer pick the shape, the operands'
// offset into their arrays and the values' seed, and holds every
// implementation to dot — for the backward, attention-adjoint and Adam
// kernels, to the loops in adjoint_test.go; for the mask gate, to its loop;
// for the gate activations, four raw bit patterns included, to the scalar
// functions.
func FuzzKernelsMatchScalar(f *testing.F) {
	f.Add(uint8(16), uint16(67), uint8(12), uint8(1), int64(1), uint64(0), uint64(1)<<63, math.Float64bits(0.625), math.Float64bits(-700))
	f.Add(uint8(37), uint16(5), uint8(5), uint8(3), int64(2), math.Float64bits(math.NaN()), math.Float64bits(44.1), math.Float64bits(math.Inf(-1)), uint64(1))
	f.Add(uint8(4), uint16(0), uint8(0), uint8(0), int64(3), uint64(0x7ff0000000000001), math.Float64bits(-1e-200), math.Float64bits(700.5), math.Float64bits(3))
	f.Add(uint8(3), uint16(257), uint8(50), uint8(2), int64(4), math.Float64bits(-37.4), math.Float64bits(0.6249), math.Float64bits(44.0148), math.Float64bits(-745))
	f.Fuzz(func(t *testing.T, rows uint8, cols uint16, windows, off uint8, seed int64, g0, g1, g2, g3 uint64) {
		for _, impl := range impls() {
			setImpl(t, impl)
			e := edgeSets[uint64(seed)%uint64(len(edgeSets))]
			checkRowKernels(t, int(rows%70), int(cols%300), int(off%8), rand.New(rand.NewSource(seed)), e.vals, e.oneIn, int(windows%64))
			checkColumnKernels(t, int(rows%70), int(cols%300), int(off%8), rand.New(rand.NewSource(seed)), e.vals, e.oneIn)
			checkGateRows(t, int(cols%300), int(windows%64), int(off%8), rand.New(rand.NewSource(seed)), e.vals, e.oneIn)
			// The gates take the fuzzer's four bit patterns as they are,
			// somewhere among rows ordinary arguments.
			pre := gateDraws(int(rows%70), rand.New(rand.NewSource(seed)))
			at := int(windows) % (len(pre) + 1)
			raw := []float64{math.Float64frombits(g0), math.Float64frombits(g1), math.Float64frombits(g2), math.Float64frombits(g3)}
			checkGates(t, append(pre[:at:at], append(raw, pre[at:]...)...), int(off%8))
		}
	})
}

// TestAttentionRow: the row builder puts expert self's P−1 weights at every
// other column, in order, and +0 — not −0, not a stale value — at its own:
// self at 0, at a quad boundary and at P−1.
func TestAttentionRow(t *testing.T) {
	negZero := math.Copysign(0, -1)
	alpha := []float64{1, negZero, 3, 4, 5, 6}
	for _, c := range []struct {
		self int
		want []float64
	}{
		{0, []float64{0, 1, negZero, 3, 4, 5, 6}},
		{4, []float64{1, negZero, 3, 4, 0, 5, 6}},
		{6, []float64{1, negZero, 3, 4, 5, 6, 0}},
	} {
		row := []float64{math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN(), 42}
		AttentionRow(row, alpha, c.self)
		for j, w := range c.want {
			if math.Float64bits(row[j]) != math.Float64bits(w) {
				t.Fatalf("self %d: row %v, want %v", c.self, row[:7], c.want)
			}
		}
		if row[7] != 42 {
			t.Fatalf("self %d: AttentionRow wrote past its P columns", c.self)
		}
	}
}

// TestAttentionRowMatchesLoop holds an expert's attention context as every
// caller forms it — AttentionRow's row against all experts' trajectory rows
// in one WindowDots — on every implementation, to the plain loop it stands
// for: zero the context, then for each other expert in order add α·h column
// by column. Every self of the small shapes, the first five,
// the middle and the last two of the large; its own row holds signed zeros
// and subnormals, which +0·h must leave out. Shapes are experts × windows ×
// width: the two the repo benchmark reads and trains, the toy's, and rows of
// windows·width floats that are padded to four lanes (5×3×7, 4×2×3, 9×5×7).
func TestAttentionRowMatchesLoop(t *testing.T) {
	for _, impl := range impls() {
		t.Run(impl, func(t *testing.T) {
			setImpl(t, impl)
			for _, d := range []struct{ P, T, hid int }{{76, 12, 128}, {399, 6, 16}, {76, 48, 128}, {399, 24, 16}, {3, 2, 4}, {5, 3, 6}, {5, 3, 7}, {4, 2, 3}, {9, 5, 7}} {
				for set, e := range edgeSets {
					rng := rand.New(rand.NewSource(int64(d.P*100 + d.hid)))
					stride := (d.T*d.hid + 3) &^ 3
					traj := fillAt(d.P*stride, 1+2*set, rng, e.vals, e.oneIn)
					alpha := fillAt(d.P-1, 2, rng, e.vals, e.oneIn)
					row := make([]float64, d.P)
					for self := 0; self < d.P; self++ {
						if d.P > 9 && self > 4 && self != d.P/2 && self < d.P-2 {
							continue
						}
						own := append([]float64(nil), traj[self*stride:][:stride]...)
						copy(traj[self*stride:], fillAt(stride, 0, rng, edgeSets[1].vals, edgeSets[1].oneIn))
						got := fillAt(stride, 3, rng, nil, 0) // stale values WindowDots must overwrite
						AttentionRow(row, alpha, self)
						WindowDots(got, row, traj, 1, d.P, stride)
						want := make([]float64, d.T*d.hid)
						for p, k := 0, 0; p < d.P; p++ {
							if p == self {
								continue
							}
							for j, x := range traj[p*stride:][:len(want)] {
								want[j] += alpha[k] * x
							}
							k++
						}
						for j := range want {
							if !sameFloat(got[j], want[j]) {
								t.Fatalf("%dx%dx%d edges=%d self=%d col %d: %x, want %x", d.P, d.T, d.hid, set, self, j,
									math.Float64bits(got[j]), math.Float64bits(want[j]))
							}
						}
						copy(traj[self*stride:], own)
					}
				}
			}
		})
	}
}

var benchSink float64

// BenchmarkGRUKernelStep times one recurrence step from ready input products
// — the three U·h products, the gates and the blend, which is what a serving
// step is — on each implementation, at the widths the repo benchmark runs:
// social at the paper's width (67 features, 128 hidden), the generated
// 150-component topology (257 features, 16 hidden) and the toy fixture. The
// steps are a trajectory's after its first: U read from packed panels
// (Panels) on the AVX2 kernels, where it lies on the Go loops.
func BenchmarkGRUKernelStep(b *testing.B) {
	for _, dim := range []struct{ in, hid int }{{67, 128}, {257, 16}, {9, 4}} {
		for _, impl := range impls() {
			b.Run(fmt.Sprintf("%dx%d/%s", dim.in, dim.hid, impl), func(b *testing.B) {
				setImpl(b, impl)
				rng := rand.New(rand.NewSource(1))
				k := newTestGRU(dim.in, dim.hid, rng)
				wx := fillAt(3*dim.hid, 0, rng, nil, 0)
				h := make([]float64, dim.hid)
				next := make([]float64, dim.hid)
				scratch := make([]float64, 3*dim.hid)
				var up Panels
				up.Reset(dim.hid)
				k.Step(wx, 1, 0, h, next, scratch, &up)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k.Step(wx, 1, 0, h, next, scratch, &up)
					h, next = next, h
				}
				benchSink = h[0]
			})
		}
	}
}

// BenchmarkWindowDots times one matrix against a whole read's windows, on
// each implementation, at the shapes the repo benchmark runs (rows × columns
// × windows): a gate's W at the paper's width over a 12-window read, a gate's
// W of the generated 150-component topology over a 6-window read (three such
// products feed a read's steps), and that topology's three-row bypass; then
// every attention context of a read as the engine forms them, the P×P
// attention matrix against the trajectories, a lane per (window, unit): 76
// experts × 12 windows × 128 hidden, and 399 × 6 × 16.
func BenchmarkWindowDots(b *testing.B) {
	for _, d := range []struct{ rows, cols, T int }{{128, 67, 12}, {16, 257, 6}, {3, 257, 6}, {76, 76, 1536}, {399, 399, 96}} {
		for _, impl := range impls() {
			b.Run(fmt.Sprintf("%dx%dx%d/%s", d.rows, d.cols, d.T, impl), func(b *testing.B) {
				setImpl(b, impl)
				rng := rand.New(rand.NewSource(1))
				tp := (d.T + 3) &^ 3
				w := fillAt(d.rows*d.cols, 0, rng, nil, 0)
				xT := fillAt(d.cols*tp, 0, rng, nil, 0)
				dst := make([]float64, d.rows*tp)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					WindowDots(dst, w, xT, d.rows, d.cols, tp)
				}
				benchSink = dst[0]
			})
		}
	}
}

// BenchmarkPeerContexts times the attention contexts of one phase-B epoch
// of one chunk of T windows (the forward of layers.Pass.Outputs, which the
// engine's pass two runs too): every panel of four experts' contexts over the
// P experts' trajectories, hidden×T floats each, as one WindowDots of its
// four attention rows, on each implementation, at the two shapes the repo
// benchmark trains (experts × windows × hidden; BenchmarkPeerAdjoint times
// the same epoch's α gradients).
func BenchmarkPeerContexts(b *testing.B) {
	for _, d := range peerShapes {
		for _, impl := range impls() {
			b.Run(fmt.Sprintf("%dx%dx%d/%s", d.P, d.T, d.hid, impl), func(b *testing.B) {
				setImpl(b, impl)
				rng := rand.New(rand.NewSource(1))
				stride := d.hid * d.T
				rows := fillAt(d.P*stride, 0, rng, nil, 0)
				attn := fillAt(d.P*d.P, 0, rng, nil, 0)
				ctx := make([]float64, 4*stride)
				b.ReportAllocs()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					for i := 0; i < d.P; i += 4 {
						WindowDots(ctx, attn[i*d.P:], rows, min(4, d.P-i), d.P, stride)
					}
				}
				benchSink = ctx[0]
			})
		}
	}
}

// peerShapes are the repo benchmark's two phase-B shapes: experts × windows
// × hidden.
var peerShapes = []struct{ P, T, hid int }{{399, 24, 16}, {76, 48, 128}}

// BenchmarkGateRows times the mask gate σ(m) ⊙ x of one expert's block of
// windows (features × windows), on each implementation: the paper-width
// social model's 67 features over a 12-window read, and the generated
// 150-component topology's 257 over a 6-window one.
func BenchmarkGateRows(b *testing.B) {
	for _, d := range []struct{ rows, T int }{{67, 12}, {257, 6}} {
		for _, impl := range impls() {
			b.Run(fmt.Sprintf("%dx%d/%s", d.rows, d.T, impl), func(b *testing.B) {
				setImpl(b, impl)
				rng := rand.New(rand.NewSource(1))
				tp := (d.T + 3) &^ 3
				gate := fillAt(d.rows, 0, rng, nil, 0)
				xT := fillAt(d.rows*tp, 0, rng, nil, 0)
				dst := make([]float64, d.rows*tp)
				rows := every(d.rows)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					gateRows(dst, gate, xT, rows, tp)
				}
				benchSink = dst[0]
			})
		}
	}
}

// TestInputProductsOfNoInputs: a cell that reads no input — an expert no
// path visits — gets +0 products, as the dense sum of ±0 terms is, whatever
// the buffer held, with and without a gate, on every implementation; and its
// tape step and backward run with no empty matrix reaching the assembly.
func TestInputProductsOfNoInputs(t *testing.T) {
	const hid, tp = 5, 8
	for _, impl := range impls() {
		t.Run(impl, func(t *testing.T) {
			setImpl(t, impl)
			rng := rand.New(rand.NewSource(3))
			g := newTestGRU(0, hid, rng)
			xT := fillAt(3*tp, 0, rng, nil, 0) // three features the cell does not read
			for _, gate := range [][]float64{nil, {}} {
				wx := make([]float64, 3*hid*tp)
				for i := range wx {
					wx[i] = math.Copysign(math.NaN(), -1)
				}
				if in := g.InputProducts(wx, nil, xT, []int{}, gate, tp); len(in) != 0 {
					t.Fatalf("the products read %d floats of input", len(in))
				}
				for i, v := range wx {
					if math.Float64bits(v) != 0 {
						t.Fatalf("gate %v: product %d is %v, want +0", gate, i, v)
					}
				}
			}
			tape := NewTape()
			wx := make([]float64, 3*hid*tp)
			g.InputProducts(wx, nil, xT, []int{}, nil, tp)
			var up Panels
			up.Reset(hid)
			h := tape.GRUStepAt(g, tape.ConstAt(xT, nil), tape.Const(make([]float64, hid)), wx, tp, 0, &up)
			tape.Backward(tape.SquaredError(h, []float64{1, 1, 1, 1, 1}))
			if len(g.Wz.Grad) != 0 || g.Bz.Grad[0] == 0 && g.Bh.Grad[0] == 0 {
				t.Fatalf("backward over no inputs: Wz grad %v, bias grads %v %v", g.Wz.Grad, g.Bz.Grad, g.Bh.Grad)
			}
		})
	}
}
