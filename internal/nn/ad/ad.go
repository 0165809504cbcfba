// Package ad is a small reverse-mode automatic differentiation engine
// operating on dense float64 vectors and matrices. It is the substrate the
// DeepRest estimator's GRU experts are built on — the stdlib-only stand-in
// for the paper's PyTorch.
//
// Usage follows the define-by-run tape model: a Tape records operations as
// they execute; Backward replays them in reverse, accumulating gradients.
// Model parameters live in Param objects. A Param owns its value and nothing
// else: whoever trains it lends it a gradient (BindGrads) that persists
// across tape rebuilds until an optimizer consumes and zeroes it — which is
// what makes truncated backpropagation-through-time (and gradient
// accumulation) straightforward — and takes it back when done
// (UnbindGrads). A parameter nobody is training carries no gradient.
//
// # Memory model
//
// The tape owns all node memory: Value structs come from a recycled node
// pool and their Data/Grad vectors from a growable float64 slab arena.
// Reset rewinds both, so a tape reused across truncated-BPTT chunks and
// epochs reaches a steady state with zero heap allocations per operation.
// The flip side is a strict lifetime rule: every *Value obtained from a
// tape is invalidated by Reset — reading (or holding) one afterwards
// observes recycled memory. Copy anything that must outlive the pass.
//
// Tapes come in two modes. NewTape records for training: every node gets a
// gradient vector and a backward opcode. NewEvalTape is the gradient-free
// lane: no gradient memory is allocated and no backward bookkeeping is kept,
// making pure forward evaluation substantially cheaper. It has two jobs: the
// occlusion probes (Model.APIInfluence) and the oracle the compiled
// inference engine is held to (Model.PredictVectors). Estimates are served
// by that engine, and training's frozen peer states are formed off the tape
// (layers.GRUBlock.Trajectory). Backward on an eval tape panics.
package ad

import (
	"fmt"
	"math"
	"math/rand"
)

// Param is a trainable tensor. Vectors use Cols == 1.
type Param struct {
	// Name identifies the parameter in serialized models and debugging
	// output.
	Name string
	// Rows and Cols give the logical shape; len(Data) == Rows*Cols.
	Rows, Cols int
	// Data is the row-major parameter value.
	Data []float64
	// Grad is the accumulated gradient, same layout as Data, while a
	// trainer has one bound (BindGrads); nil otherwise.
	Grad []float64
}

// NewParam allocates a zero-initialised parameter. It has no gradient.
func NewParam(name string, rows, cols int) *Param {
	return &Param{
		Name: name,
		Rows: rows, Cols: cols,
		Data: make([]float64, rows*cols),
	}
}

// Shape names a parameter and gives its dimensions.
type Shape struct {
	Name       string
	Rows, Cols int
}

// Carve returns zero parameters of the given shapes whose values are
// consecutive runs, in shapes order, of one allocation. A model's tensors
// are otherwise allocated one by one, each rounded up to its size class — a
// fifth more memory than their values on matrices just past one (16×257
// floats: 32.1 KB in a 40 KB span) — and scattered; carved they round up
// once and lie in the order a forward pass reads them.
func Carve(shapes []Shape) []*Param {
	n := 0
	for _, s := range shapes {
		n += s.Rows * s.Cols
	}
	block, params := make([]float64, n), make([]Param, len(shapes))
	out := make([]*Param, len(shapes))
	for i, s := range shapes {
		k := s.Rows * s.Cols
		params[i] = Param{Name: s.Name, Rows: s.Rows, Cols: s.Cols, Data: block[:k:k]}
		block, out[i] = block[k:], &params[i]
	}
	return out
}

// BindGrads lends every parameter a zeroed gradient: consecutive runs, in
// params order, of one buffer — buf when it is large enough, a new one
// otherwise — which it returns for the next call. A trainer that fits many
// parameter sets in turn keeps one buffer the size of the largest.
func BindGrads(buf []float64, params []*Param) []float64 {
	total := totalSize(params)
	if cap(buf) < total {
		buf = make([]float64, total)
	} else {
		buf = buf[:total]
		clear(buf)
	}
	off := 0
	for _, p := range params {
		n := p.Size()
		p.Grad = buf[off : off+n : off+n]
		off += n
	}
	return buf
}

func totalSize(params []*Param) int {
	n := 0
	for _, p := range params {
		n += p.Size()
	}
	return n
}

// UnbindGrads takes the parameters' gradients away again.
func UnbindGrads(params []*Param) {
	for _, p := range params {
		p.Grad = nil
	}
}

// NewParamInit allocates a parameter with Glorot-uniform initialisation.
func NewParamInit(name string, rows, cols int, rng *rand.Rand) *Param {
	p := NewParam(name, rows, cols)
	p.InitGlorot(rng)
	return p
}

// InitGlorot overwrites p's values with Glorot-uniform draws from rng, one
// per value in order.
func (p *Param) InitGlorot(rng *rand.Rand) { p.InitGlorotCols(rng, p.Cols, nil) }

// InitGlorotCols overwrites p's values with columns cols (ascending; every
// column when nil) of a Glorot-uniform Rows×dense matrix drawn from rng: one
// draw per value of the dense matrix, row by row, at its fan-in's scale. A
// draw of another column is dropped: it only advances rng, as Float64 would,
// whose one resample is an Int63 that rounds to 1<<63.
func (p *Param) InitGlorotCols(rng *rand.Rand, dense int, cols []int) {
	scale := math.Sqrt(6.0 / float64(p.Rows+dense))
	i := 0
	for range p.Rows {
		next := 0 // the index into cols of the next column kept
		for c := range dense {
			if cols == nil || next < len(cols) && cols[next] == c {
				p.Data[i] = (2*rng.Float64() - 1) * scale
				i, next = i+1, next+1
				continue
			}
			for float64(rng.Int63()) == 1<<63 {
			}
		}
	}
}

// Size returns the number of scalar elements.
func (p *Param) Size() int { return len(p.Data) }

// opcode selects a node's backward rule. Opcode dispatch (instead of a
// closure per node) keeps recording allocation-free and lets Reset recycle
// nodes wholesale.
type opcode uint8

const (
	opLeaf opcode = iota // Const: nothing to do
	opUse                // nothing to do: Grad is the parameter's own
	opMatVec
	opAdd
	opMul
	opScaleConst
	opOneMinus
	opSigmoid
	opTanh
	opConcat
	opColumn
	opWeightedSumConst
	opPinball
	opSquaredError
	opSumScalars
	opGRUStep
)

// Value is a node in the computation graph: the result of one operation (or
// a leaf). Shapes: vectors are Rows×1; matrices Rows×Cols. Values are owned
// by their tape: Reset invalidates every Value the tape has handed out.
type Value struct {
	// Data holds the node's value, row-major.
	Data []float64
	// Grad holds ∂loss/∂node after Backward; nil on eval-mode tapes.
	Grad []float64
	// Rows and Cols give the logical shape.
	Rows, Cols int

	op   opcode
	a, b *Value    // operand nodes
	sc   float64   // ScaleConst factor
	aux  []float64 // payload: loss targets∥quantiles and GRU gates (arena-owned), WeightedSumConst base (caller's)
	args []*Value  // SumScalars operands (caller slice; stable until Backward)
	gru  *GRUParams

	stride int // WeightedSumConst: between the experts' rows of aux; Column: the column
	self   int // WeightedSumConst: the expert's own row of aux
}

// Len returns the number of scalar elements.
func (v *Value) Len() int { return len(v.Data) }

// Arena growth quanta: float slabs hold Data/Grad vectors, node slabs hold
// Value structs. Both grow on demand and are recycled by Reset.
const (
	slabFloats = 8192
	slabNodes  = 512
)

// Tape records operations for reverse-mode differentiation. A Tape is not
// safe for concurrent use; build one tape per goroutine.
//
// The tape arena-allocates all node memory and Reset recycles it, so any
// *Value from before a Reset is dead. In particular, a recurrent state
// carried across Reset calls must be copied out first and re-introduced
// with Const.
type Tape struct {
	grad  bool
	nodes []*Value

	slabs    [][]float64
	slab     int // index of the slab currently being carved
	slabOff  int // next free float in slabs[slab]
	nodeSlab [][]Value
	nodeIdx  int
	nodeOff  int

	scratch []float64 // fused-op workspace (gruBackward's khg)

	// The GRU steps whose weight gradients Backward has yet to form, and
	// flushGRU's table (gru.go).
	gruSteps []*Value
	terms    []outer
}

// NewTape returns an empty training tape: operations record gradients and
// backward rules for Backward.
func NewTape() *Tape { return &Tape{grad: true} }

// NewEvalTape returns an empty gradient-free tape for pure inference: no
// gradient vectors are allocated and no backward information is kept.
// Backward panics on it; everything else behaves identically.
func NewEvalTape() *Tape { return &Tape{} }

// Reset discards all recorded operations and recycles every node and data
// vector the tape owns, so the next forward pass reuses the same memory.
// All Values previously returned by this tape are invalidated.
func (t *Tape) Reset() {
	t.nodes = t.nodes[:0]
	t.slab, t.slabOff = 0, 0
	t.nodeIdx, t.nodeOff = 0, 0
	t.gruSteps = t.gruSteps[:0]
}

// NumNodes returns the number of recorded graph nodes.
func (t *Tape) NumNodes() int { return len(t.nodes) }

func (t *Tape) record(v *Value) *Value {
	t.nodes = append(t.nodes, v)
	return v
}

// alloc carves a zeroed n-float vector out of the slab arena, growing it if
// every recycled slab is exhausted.
func (t *Tape) alloc(n int) []float64 {
	if n == 0 {
		return nil
	}
	for {
		if t.slab < len(t.slabs) {
			s := t.slabs[t.slab]
			if t.slabOff+n <= len(s) {
				out := s[t.slabOff : t.slabOff+n : t.slabOff+n]
				t.slabOff += n
				clear(out) // recycled memory: erase the previous pass
				return out
			}
			// Tail of this slab is too small for the request; leave it
			// and carve from the next one.
			t.slab++
			t.slabOff = 0
			continue
		}
		t.slabs = append(t.slabs, make([]float64, max(n, slabFloats)))
	}
}

// newNode hands out a recycled (zeroed) Value struct from the node pool.
func (t *Tape) newNode() *Value {
	if t.nodeIdx >= len(t.nodeSlab) {
		t.nodeSlab = append(t.nodeSlab, make([]Value, slabNodes))
	}
	v := &t.nodeSlab[t.nodeIdx][t.nodeOff]
	t.nodeOff++
	if t.nodeOff == len(t.nodeSlab[t.nodeIdx]) {
		t.nodeIdx++
		t.nodeOff = 0
	}
	*v = Value{}
	return v
}

func (t *Tape) newValue(rows, cols int) *Value {
	v := t.newNode()
	n := rows * cols
	if t.grad {
		buf := t.alloc(2 * n)
		v.Data, v.Grad = buf[:n:n], buf[n:]
	} else {
		v.Data = t.alloc(n)
	}
	v.Rows, v.Cols = rows, cols
	return v
}

// Const introduces an input vector as a leaf. Gradients flowing into it are
// accumulated but never used; the caller's slice is not aliased.
func (t *Tape) Const(data []float64) *Value {
	v := t.newValue(len(data), 1)
	copy(v.Data, data)
	return t.record(v)
}

// ConstAt is Const of the vector whose k-th value is data[idx[k]]: the
// features of a window that an expert reads.
func (t *Tape) ConstAt(data []float64, idx []int) *Value {
	v := t.newValue(len(idx), 1)
	for k, i := range idx {
		v.Data[k] = data[i]
	}
	return t.record(v)
}

// Use introduces a parameter into the graph. The returned Value aliases the
// parameter's Data and Grad, so Backward accumulates directly into the
// parameter's bound gradient; a training tape panics on a parameter that
// has none.
func (t *Tape) Use(p *Param) *Value {
	if t.grad && len(p.Grad) != len(p.Data) {
		panic(fmt.Sprintf("ad: parameter %s on a training tape without a bound gradient (see BindGrads)", p.Name))
	}
	v := t.newNode()
	v.Data, v.Grad = p.Data, p.Grad
	v.Rows, v.Cols = p.Rows, p.Cols
	v.op = opUse
	return t.record(v)
}

// MatVec computes y = W·x for a Rows×Cols matrix value and a Cols-vector.
func (t *Tape) MatVec(w, x *Value) *Value {
	if w.Cols != x.Rows || x.Cols != 1 {
		panic(fmt.Sprintf("ad: MatVec shape mismatch: %dx%d · %dx%d", w.Rows, w.Cols, x.Rows, x.Cols))
	}
	out := t.newValue(w.Rows, 1)
	matVec(out.Data, w.Data, x.Data)
	out.op, out.a, out.b = opMatVec, w, x
	return t.record(out)
}

// dot is the one definition of a row sum: a single accumulator that starts
// at +0 and adds row[j]*x[j] in ascending j. Every dense product in the
// package — MatVec, the GRU forward, the tape-free kernel — yields exactly
// this value per row; dot4 only computes four of them at once.
func dot(row, x []float64) float64 {
	s := 0.0
	for j, r := range row {
		s += r * x[j]
	}
	return s
}

// dot4 returns dot(row, x) for each of the four consecutive rows of the
// row-major panel w (len(w) = 4·len(x)). Rows are blocked, columns never are:
// each accumulator sums its own row in dot's column order, so every result
// is Float64bits-equal to dot's, while the four add chains are independent
// and the processor overlaps them instead of waiting out one chain's
// latency. The multiply-add is written as in dot (s += r * x[j]) so targets
// that contract it to a fused multiply-add contract both alike.
func dot4(w, x []float64) (s0, s1, s2, s3 float64) {
	n := len(x)
	// Each row is re-sliced to len(x) so the loop carries no bounds checks.
	r0, r1, r2, r3 := w[:n], w[n:][:n], w[2*n:][:n], w[3*n:][:n]
	for j, xj := range x {
		s0 += r0[j] * xj
		s1 += r1[j] * xj
		s2 += r2[j] * xj
		s3 += r3[j] * xj
	}
	return s0, s1, s2, s3
}

// matVec writes dst[i] = dot(w[i*cols:(i+1)*cols], x) for the len(dst)
// rows of the row-major matrix w on the Go loops (Tape.MatVec: the heads and
// the bypass, three rows each).
func matVec(dst, w, x []float64) { packedMatVec(dst, w, x, nil, false) }

// packedMatVec is matVec with a panel (see Panels). With AVX2 rows go sixteen
// and then four per call of the row kernels, which read w and store its
// panel with packed false, and read the panel an earlier call filled with
// packed true; without, four per pass through dot4. The len(dst)%4 remainder
// goes through dot either way. Every rung sums a row in dot's column order,
// so which rung a row lands on never shows in its bits.
func packedMatVec(dst, w, x, panel []float64, packed bool) {
	cols := len(x)
	i := 0
	// The assembly takes bare pointers: an empty x must not reach it, and a
	// w or panel too short for len(dst) rows must panic here.
	if useAVX2 && cols > 0 && panel != nil {
		w, panel = w[:len(dst)*cols], panel[:len(dst)*cols]
		for ; i+16 <= len(dst); i += 16 {
			if packed {
				rowDots16PackedAVX2(&dst[i], &panel[i*cols], &x[0], cols)
			} else {
				rowDots16PackAVX2(&dst[i], &w[i*cols], &x[0], cols, &panel[i*cols])
			}
		}
		for ; i+4 <= len(dst); i += 4 {
			if packed {
				rowDots4PackedAVX2(&dst[i], &panel[i*cols], &x[0], cols)
			} else {
				rowDots4PackAVX2(&dst[i], &w[i*cols], &x[0], cols, &panel[i*cols])
			}
		}
	}
	for ; i+4 <= len(dst); i += 4 {
		dst[i], dst[i+1], dst[i+2], dst[i+3] = dot4(w[i*cols:(i+4)*cols], x)
	}
	for ; i < len(dst); i++ {
		dst[i] = dot(w[i*cols:(i+1)*cols], x)
	}
}

// Add computes a + b element-wise; shapes must match.
func (t *Tape) Add(a, b *Value) *Value {
	checkSameShape("Add", a, b)
	out := t.newValue(a.Rows, a.Cols)
	for i := range out.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	out.op, out.a, out.b = opAdd, a, b
	return t.record(out)
}

// Mul computes the Hadamard product a ⊙ b; shapes must match.
func (t *Tape) Mul(a, b *Value) *Value {
	checkSameShape("Mul", a, b)
	out := t.newValue(a.Rows, a.Cols)
	for i := range out.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	out.op, out.a, out.b = opMul, a, b
	return t.record(out)
}

// ScaleConst computes s·a for a compile-time constant s.
func (t *Tape) ScaleConst(a *Value, s float64) *Value {
	out := t.newValue(a.Rows, a.Cols)
	for i := range out.Data {
		out.Data[i] = s * a.Data[i]
	}
	out.op, out.a, out.sc = opScaleConst, a, s
	return t.record(out)
}

// OneMinus computes 1 - a element-wise (the GRU's (1 - z) gate complement).
func (t *Tape) OneMinus(a *Value) *Value {
	out := t.newValue(a.Rows, a.Cols)
	for i := range out.Data {
		out.Data[i] = 1 - a.Data[i]
	}
	out.op, out.a = opOneMinus, a
	return t.record(out)
}

// Sigmoid applies the logistic function element-wise.
func (t *Tape) Sigmoid(a *Value) *Value {
	out := t.newValue(a.Rows, a.Cols)
	copy(out.Data, a.Data)
	sigmoids(out.Data)
	out.op, out.a = opSigmoid, a
	return t.record(out)
}

// Tanh applies the hyperbolic tangent element-wise.
func (t *Tape) Tanh(a *Value) *Value {
	out := t.newValue(a.Rows, a.Cols)
	copy(out.Data, a.Data)
	tanhs(out.Data)
	out.op, out.a = opTanh, a
	return t.record(out)
}

// Concat stacks vectors a and b into one vector (the paper's a_t ∥ h_t).
func (t *Tape) Concat(a, b *Value) *Value {
	if a.Cols != 1 || b.Cols != 1 {
		panic("ad: Concat requires vectors")
	}
	out := t.newValue(a.Rows+b.Rows, 1)
	copy(out.Data, a.Data)
	copy(out.Data[a.Rows:], b.Data)
	out.op, out.a, out.b = opConcat, a, b
	return t.record(out)
}

// Column returns column c of the matrix m as a vector: one window's context
// out of WeightedSumConst's block.
func (t *Tape) Column(m *Value, c int) *Value {
	if c < 0 || c >= m.Cols {
		panic(fmt.Sprintf("ad: Column %d of a %dx%d matrix", c, m.Rows, m.Cols))
	}
	out := t.newValue(m.Rows, 1)
	for j := range out.Data {
		out.Data[j] = m.Data[j*m.Cols+c]
	}
	out.op, out.a, out.stride = opColumn, m, c
	return t.record(out)
}

// AttentionRow writes expert self's attention weights into row, its row of
// the P×P attention matrix (P = len(alpha)+1): alpha in order at every column
// but self's, +0 at self's. It is the one statement of the attention
// relation — an expert attends to every other expert, in order — that the
// serving engine's matrix and the tape's WeightedSumConst both read.
func AttentionRow(row, alpha []float64, self int) {
	row = row[:len(alpha)+1]
	copy(row, alpha[:self])
	row[self] = 0
	copy(row[self+1:], alpha[self:])
}

// peerRows returns the rows·stride floats of base that hold the experts'
// rows, and panics naming the attention op when base is shorter or a row
// cannot hold a block of n floats padded to WindowDots' four lanes.
func peerRows(base []float64, rows, stride, n int) []float64 {
	if stride%4 != 0 || stride < n || len(base) < rows*stride {
		panic(fmt.Sprintf("ad: WeightedSumConst: %d floats for %d rows of %d, each a block of %d padded to four lanes", len(base), rows, stride, n))
	}
	return base[:rows*stride]
}

// WeightedSumConst computes expert self's cross-component attention over
// detached hidden states for a block of consecutive windows at once:
// Σ_{k≠self} α_k·h_k for constant hidden×windows blocks h_k, window-minor —
// unit j of window t at j*windows+t — expert k's block the row of base that
// starts at k*stride, stride padded to four lanes. base holds all P =
// alpha.Rows+1 experts' rows, self's included: the sum is AttentionRow's row
// against them in one WindowDots, so every context starts at +0 and adds the
// products in ascending k, +0·h_self among them — ±0 for a finite state,
// which leaves a sum that started at +0 (and so is never −0) unchanged. The
// result is the hidden×windows block of contexts (Column takes one out).
// base is retained until the next Reset and must not be mutated before
// Backward.
//
// Every window is its own sum: the adjoint adds to alpha's gradient one dot
// per window, windows descending — the order in which Backward would visit
// one-window ops recorded window by window — so a chunk's block has the
// gradient bits of its windows' ops, and is formed in one pass over the
// experts' rows (AttentionGrads, with one block) instead of one per window.
func (t *Tape) WeightedSumConst(alpha *Value, self int, base []float64, stride, hidden, windows int) *Value {
	P := alpha.Rows + 1
	if alpha.Cols != 1 || P < 2 || self < 0 || self >= P || hidden <= 0 || windows <= 0 {
		panic(fmt.Sprintf("ad: WeightedSumConst: expert %d with %d weights, %d units × %d windows", self, alpha.Rows, hidden, windows))
	}
	base = peerRows(base, P, stride, hidden*windows)
	out := t.newValue(hidden, windows)
	buf := t.scratchBuf(P + stride) // the row, then the padded sums
	AttentionRow(buf, alpha.Data, self)
	WindowDots(buf[P:], buf[:P], base, 1, P, stride)
	copy(out.Data, buf[P:])
	out.op, out.a, out.aux, out.stride, out.self = opWeightedSumConst, alpha, base, stride, self
	return t.record(out)
}

// Pinball computes the quantile-regression (pinball) loss of the paper's
// Equation 5/6: Σ_k Q(Δ_k | q_k) with Δ_k = target_k − pred_k, where
// Q(Δ|δ) = δΔ for Δ ≥ 0 and (δ−1)Δ otherwise. This is the standard
// orientation under which minimisation drives pred_k to the q_k-th quantile
// of the target distribution (with Δ = pred − target the heads would
// converge to the mirrored (1−q) quantiles). pred and target have length
// len(q); the result is a scalar. target and q are copied, so callers may
// reuse their buffers immediately.
func (t *Tape) Pinball(pred *Value, target []float64, q []float64) *Value {
	if pred.Len() != len(q) || len(target) != len(q) {
		panic(fmt.Sprintf("ad: Pinball wants %d predictions and targets, got %d/%d", len(q), pred.Len(), len(target)))
	}
	out := t.newValue(1, 1)
	for k, d := range q {
		delta := target[k] - pred.Data[k]
		if delta >= 0 {
			out.Data[0] += d * delta
		} else {
			out.Data[0] += (d - 1) * delta
		}
	}
	if t.grad {
		aux := t.alloc(2 * len(q))
		copy(aux, target)
		copy(aux[len(q):], q)
		out.op, out.a, out.aux = opPinball, pred, aux
	}
	return t.record(out)
}

// SquaredError computes Σ_k (pred_k − target_k)² as a scalar. target is
// copied, so callers may reuse the buffer immediately.
func (t *Tape) SquaredError(pred *Value, target []float64) *Value {
	if pred.Len() != len(target) {
		panic(fmt.Sprintf("ad: SquaredError length mismatch %d vs %d", pred.Len(), len(target)))
	}
	out := t.newValue(1, 1)
	for k, y := range target {
		d := pred.Data[k] - y
		out.Data[0] += d * d
	}
	if t.grad {
		aux := t.alloc(len(target))
		copy(aux, target)
		out.op, out.a, out.aux = opSquaredError, pred, aux
	}
	return t.record(out)
}

// SumScalars adds scalar values into one scalar. The operand slice is
// retained until the next Reset; callers must not mutate it before
// Backward.
func (t *Tape) SumScalars(vs ...*Value) *Value {
	out := t.newValue(1, 1)
	for _, v := range vs {
		if v.Len() != 1 {
			panic("ad: SumScalars requires scalar operands")
		}
		out.Data[0] += v.Data[0]
	}
	out.op, out.args = opSumScalars, vs
	return t.record(out)
}

// Backward runs reverse-mode accumulation from the scalar root, seeding its
// gradient with 1. It panics on an eval-mode tape.
func (t *Tape) Backward(root *Value) {
	if !t.grad {
		panic("ad: Backward on a gradient-free eval tape")
	}
	if root.Len() != 1 {
		panic("ad: Backward root must be scalar")
	}
	root.Grad[0] += 1
	for i := len(t.nodes) - 1; i >= 0; i-- {
		t.backstep(t.nodes[i])
	}
	t.flushGRU()
}

// backstep applies one node's backward rule. Each case reproduces, float
// operation for float operation, the gradient arithmetic of the original
// closure-based engine, so results are bit-identical.
func (t *Tape) backstep(v *Value) {
	switch v.op {
	case opLeaf, opUse:
	case opMatVec:
		w, x := v.a, v.b
		colSums(x.Grad, w.Data, v.Grad)
		outerSums(w.Grad, []outer{{delta: v.Grad, x: x.Data}})
	case opAdd:
		a, b := v.a, v.b
		for i, g := range v.Grad {
			a.Grad[i] += g
			b.Grad[i] += g
		}
	case opMul:
		a, b := v.a, v.b
		for i, g := range v.Grad {
			a.Grad[i] += g * b.Data[i]
			b.Grad[i] += g * a.Data[i]
		}
	case opScaleConst:
		a, s := v.a, v.sc
		for i, g := range v.Grad {
			a.Grad[i] += s * g
		}
	case opOneMinus:
		a := v.a
		for i, g := range v.Grad {
			a.Grad[i] -= g
		}
	case opSigmoid:
		a := v.a
		for i, g := range v.Grad {
			s := v.Data[i]
			a.Grad[i] += g * s * (1 - s)
		}
	case opTanh:
		a := v.a
		for i, g := range v.Grad {
			th := v.Data[i]
			a.Grad[i] += g * (1 - th*th)
		}
	case opConcat:
		a, b := v.a, v.b
		for i := 0; i < a.Rows; i++ {
			a.Grad[i] += v.Grad[i]
		}
		for i := 0; i < b.Rows; i++ {
			b.Grad[i] += v.Grad[a.Rows+i]
		}
	case opColumn:
		m := v.a
		for j, g := range v.Grad {
			m.Grad[j*m.Cols+v.stride] += g
		}
	case opWeightedSumConst:
		n := v.Cols
		AttentionGrads([][]float64{v.a.Grad}, []int{v.self}, v.Grad, v.aux, v.stride, n, t.scratchBuf((v.a.Rows+1)*n))
	case opPinball:
		pred := v.a
		n := len(v.aux) / 2
		target, q := v.aux[:n], v.aux[n:]
		g := v.Grad[0]
		for k, d := range q {
			delta := target[k] - pred.Data[k]
			if delta >= 0 {
				pred.Grad[k] -= g * d
			} else {
				pred.Grad[k] -= g * (d - 1)
			}
		}
	case opSquaredError:
		pred := v.a
		g := v.Grad[0]
		for k, y := range v.aux {
			pred.Grad[k] += g * 2 * (pred.Data[k] - y)
		}
	case opSumScalars:
		g := v.Grad[0]
		for _, o := range v.args {
			o.Grad[0] += g
		}
	case opGRUStep:
		t.gruBackward(v)
	default:
		panic(fmt.Sprintf("ad: unknown opcode %d", v.op))
	}
}

func checkSameShape(op string, a, b *Value) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("ad: %s shape mismatch: %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

func stableSigmoid(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}

// scratchBuf returns an n-float workspace owned by the tape. Contents are
// undefined; callers overwrite or clear what they use.
func (t *Tape) scratchBuf(n int) []float64 {
	if cap(t.scratch) < n {
		t.scratch = make([]float64, n)
	}
	return t.scratch[:n]
}
