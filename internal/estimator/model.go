package estimator

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/app"
	"repro/internal/features"
	"repro/internal/nn/ad"
	"repro/internal/nn/layers"
	"repro/internal/nn/loss"
	"repro/internal/nn/opt"
	"repro/internal/trace"
)

// Config controls model architecture and training. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	// Hidden is the GRU width. The paper uses 128 on a real testbed; on
	// the simulated substrate a small recurrent state (default 4)
	// reproduces the evaluation shape best — wider GRUs have enough
	// capacity to memorise the diurnal *shape* of the training traffic
	// instead of the per-API footprints, which mis-extrapolates when a
	// query changes the API composition (see DESIGN.md).
	Hidden int
	// Delta is the confidence level δ of the estimated interval
	// (paper: 0.90).
	Delta float64
	// Epochs is the number of phase-A epochs (attention disabled).
	Epochs int
	// AttentionEpochs is the number of phase-B epochs fine-tuning with
	// cross-component attention over detached peer hidden states.
	AttentionEpochs int
	// ChunkLen is the truncated-BPTT segment length in windows.
	ChunkLen int
	// LR is the Adam learning rate, held constant over the run.
	LR float64
	// ClipNorm bounds the per-step global gradient norm.
	ClipNorm float64
	// Seed drives parameter initialisation and chunk shuffling.
	Seed int64
	// UseMask enables the API-aware mask (ablation: false freezes the
	// gate fully open).
	UseMask bool
	// UseAttention enables the cross-component attention mechanism.
	UseAttention bool
	// LinearBypass enables the linear input→output skip connection that
	// lets the bounded recurrent state extrapolate to unseen scales.
	LinearBypass bool
	// MaskL1 penalises open mask gates (λ·Σ σ(m)), pressuring each
	// expert to admit only the invocation paths that actually explain
	// its resource. Different APIs share the diurnal shape, so without
	// sparsity pressure the credit for a resource spreads across
	// correlated paths and mis-extrapolates when a query changes the
	// composition.
	MaskL1 float64
	// BypassL1 penalises the linear bypass weights (λ·Σ|S|), for the
	// same attribution reason.
	BypassL1 float64
	// Parallelism bounds concurrent expert training; 0 means GOMAXPROCS.
	Parallelism int
	// Log, when non-nil, receives one line per epoch phase.
	Log io.Writer
	// Progress, when non-nil, receives one event per completed training
	// epoch per expert. Experts train in parallel, so the hook MUST be safe
	// for concurrent use; it also runs inline on the training path and must
	// be cheap. The continuous-learning pipeline uses it to export per-epoch
	// loss and duration metrics.
	Progress func(ProgressEvent)
	// Stage, when non-nil, is called on the training goroutine as each stage
	// of a run starts — StageTrunks, StagePeerStates, StageAttention — and
	// returns the function to call when that stage ends. The learning
	// pipeline hangs its spans and the per-stage duration histogram on it.
	Stage func(stage string) (end func())
}

// Training phases reported through Config.Progress.
const (
	// PhaseTrain is phase A: independent truncated-BPTT training of each
	// expert with attention disabled.
	PhaseTrain = "train"
	// PhaseAttention is phase B: fitting attention weights and the output
	// head over frozen recurrent trunks.
	PhaseAttention = "attention"
)

// Training stages reported through Config.Stage, in the order they run.
const (
	// StageTrunks is phase A over every expert.
	StageTrunks = "trunks"
	// StagePeerStates computes the frozen trunks' hidden trajectories that
	// phase B attends over.
	StagePeerStates = "peer_states"
	// StageAttention is phase B over every expert.
	StageAttention = "attention"
)

// ProgressEvent describes one completed training epoch of one expert.
type ProgressEvent struct {
	// Pair is the expert's (component, resource) target, e.g. "Service/cpu".
	Pair string
	// Phase is PhaseTrain or PhaseAttention.
	Phase string
	// Epoch counts from 1 to Epochs within the phase.
	Epoch, Epochs int
	// Loss is the mean pinball loss across the epoch's chunks, in the
	// expert's unit target scale.
	Loss float64
	// Duration is the wall-clock time the epoch took.
	Duration time.Duration
}

// DefaultConfig returns the configuration used by the experiment drivers.
func DefaultConfig() Config {
	return Config{
		Hidden:          4,
		Delta:           0.90,
		Epochs:          30,
		AttentionEpochs: 6,
		ChunkLen:        64,
		LR:              0.01,
		ClipNorm:        5,
		Seed:            1,
		UseMask:         true,
		UseAttention:    true,
		LinearBypass:    true,
		MaskL1:          0.002,
		BypassL1:        0.0005,
	}
}

// targetKind distinguishes level series (CPU, memory, IOps, throughput)
// from monotone counters (disk usage), which are modelled as per-window
// deltas and re-integrated at prediction time.
type targetKind int

const (
	kindLevel targetKind = iota
	kindDelta
)

// TargetScale maps a raw utilization series into the unit scale the expert
// is trained on and back.
type TargetScale struct {
	// Kind selects level or delta modelling.
	Kind targetKind
	// Scale divides the (possibly differenced) series; always positive.
	Scale float64
	// Base is the value to resume a monotone counter from at query time
	// (the last observed training value).
	Base float64
}

func fitTargetScale(p app.Pair, series []float64) *TargetScale {
	ts := &TargetScale{Kind: kindLevel, Scale: 1}
	if p.Resource == app.DiskUsage {
		ts.Kind = kindDelta
		if len(series) > 0 {
			ts.Base = series[len(series)-1]
		}
	}
	tr := ts.transform(series)
	max := 0.0
	for _, v := range tr {
		if v > max {
			max = v
		} else if -v > max {
			max = -v
		}
	}
	if max > 0 {
		ts.Scale = max
	}
	return ts
}

// transform differences delta-kind series; level series pass through.
func (ts *TargetScale) transform(series []float64) []float64 {
	if ts.Kind == kindLevel {
		out := make([]float64, len(series))
		copy(out, series)
		return out
	}
	out := make([]float64, len(series))
	for i := range series {
		if i == 0 {
			out[i] = 0
			continue
		}
		out[i] = series[i] - series[i-1]
	}
	return out
}

// scaled returns the training targets in unit scale.
func (ts *TargetScale) scaled(series []float64) []float64 {
	out := ts.transform(series)
	for i := range out {
		out[i] /= ts.Scale
	}
	return out
}

// Estimate is a descaled prediction for one (component, resource) pair.
type Estimate struct {
	// Exp is the expected utilization per window.
	Exp []float64
	// Low and Up bound the δ-confidence interval per window.
	Low, Up []float64
}

// Model is a trained DeepRest instance for one application.
//
// A model that has been compiled (infer.Compile) is immutable: the engine
// reads the experts' Param.Data in place, so that a published generation
// holds its weights once, and serves them lock-free. Whatever changes
// weights — training, Update — works on a model nobody has compiled; a
// retrain builds a new model and warm-starts it by copying (FromModel).
type Model struct {
	// Cfg is the training configuration.
	Cfg Config
	// Space is the invocation-path feature space built during
	// application learning.
	Space *features.Space
	// FeatScaler normalises feature counts.
	FeatScaler *features.Scaler
	// Pairs lists the estimation targets in training order.
	Pairs []app.Pair
	// Experts holds one expert per pair.
	Experts map[app.Pair]*Expert
	// TargetScales holds the per-pair descaling information.
	TargetScales map[app.Pair]*TargetScale
}

// WeightBytes returns the size of the model's parameters, 8 bytes per
// scalar over every expert.
func (m *Model) WeightBytes() int {
	n := 0
	for _, e := range m.Experts {
		n += e.NumParams()
	}
	return 8 * n
}

// Train learns a DeepRest model from application-learning telemetry: the
// windows of trace batches and the aligned utilization series per pair.
func Train(windows [][]trace.Batch, usage map[app.Pair][]float64, cfg Config) (*Model, error) {
	return TrainWarm(windows, usage, cfg, nil)
}

// buildModel constructs the feature space, scalers, and freshly initialised
// experts, returning the scaled inputs and targets ready for training.
func buildModel(windows [][]trace.Batch, usage map[app.Pair][]float64, cfg Config) (*Model, [][]float64, map[app.Pair][]float64, error) {
	if len(windows) == 0 {
		return nil, nil, nil, fmt.Errorf("estimator: no learning windows")
	}
	if len(usage) == 0 {
		return nil, nil, nil, fmt.Errorf("estimator: no utilization series")
	}
	if cfg.Hidden <= 0 || cfg.ChunkLen <= 0 || cfg.Epochs < 0 {
		return nil, nil, nil, fmt.Errorf("estimator: invalid config: hidden=%d chunk=%d epochs=%d", cfg.Hidden, cfg.ChunkLen, cfg.Epochs)
	}
	space := features.NewSpace(windows)
	if space.Dim() == 0 {
		return nil, nil, nil, fmt.Errorf("estimator: learning windows contain no traces")
	}
	raw := features.Matrix(space.ExtractSeries(windows))
	scaler := features.FitScaler(raw)
	x := scaler.Apply(raw)

	pairs := make([]app.Pair, 0, len(usage))
	for p, series := range usage {
		if len(series) != len(windows) {
			return nil, nil, nil, fmt.Errorf("estimator: %s has %d samples for %d windows", p, len(series), len(windows))
		}
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Component != pairs[j].Component {
			return pairs[i].Component < pairs[j].Component
		}
		return pairs[i].Resource < pairs[j].Resource
	})

	m := &Model{
		Cfg:          cfg,
		Space:        space,
		FeatScaler:   scaler,
		Pairs:        pairs,
		Experts:      make(map[app.Pair]*Expert, len(pairs)),
		TargetScales: make(map[app.Pair]*TargetScale, len(pairs)),
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	names := make([]string, len(pairs))
	for i, p := range pairs {
		names[i] = p.String()
	}
	targets := make(map[app.Pair][]float64, len(pairs))
	for i, p := range pairs {
		m.TargetScales[p] = fitTargetScale(p, usage[p])
		targets[p] = m.TargetScales[p].scaled(usage[p])
		// An expert attends to every other expert, in training order.
		peers := append(append(make([]string, 0, len(pairs)-1), names[:i]...), names[i+1:]...)
		m.Experts[p] = newExpert(p, space.Dim(), cfg.Hidden, peers, cfg, rng)
	}

	return m, x, targets, nil
}

// trainAll runs the two training phases over a freshly built (or
// warm-started) model.
func (m *Model) trainAll(x [][]float64, targets map[app.Pair][]float64, cfg Config) error {
	return m.trainPhases(x, targets, cfg, cfg.Epochs, cfg.Seed, cfg.Seed+1000)
}

// trainPhases runs phase A for the given number of epochs and then phase B
// for cfg.AttentionEpochs; expert i draws its chunk order from seedA+i and
// seedB+i.
func (m *Model) trainPhases(x [][]float64, targets map[app.Pair][]float64, cfg Config, epochs int, seedA, seedB int64) error {
	quant := loss.Quantiles(cfg.Delta)
	q := quant[:]
	stage := cfg.Stage
	if stage == nil {
		stage = func(string) func() { return func() {} }
	}

	// Phase A: train every expert independently with attention disabled.
	logf(cfg.Log, "phase A: training %d experts (%d epochs, dim=%d, hidden=%d)",
		len(m.Pairs), epochs, m.Space.Dim(), cfg.Hidden)
	end := stage(StageTrunks)
	err := m.forEachExpert(func(i int, p app.Pair, ws *workspace) error {
		return trainExpert(ws, m.Experts[p], x, targets[p], cfg, epochs, q, seedA+int64(i))
	})
	end()
	if err != nil {
		return err
	}

	// Phase B: learn the cross-component attention weights over detached
	// peer hidden states. Only the attention weights α and the output
	// head V train here; the recurrent trunks stay frozen, so every
	// expert's hidden trajectory — and therefore every peer state — is
	// exactly what inference will see. (Fine-tuning the trunks here
	// would invalidate the peer states the attention was fitted to.)
	if cfg.UseAttention && cfg.AttentionEpochs > 0 && len(m.Pairs) > 1 {
		logf(cfg.Log, "phase B: attention (%d epochs over frozen trunks)", cfg.AttentionEpochs)
		end = stage(StagePeerStates)
		hidden, err := m.allHiddenStates(x)
		end()
		if err != nil {
			return err
		}
		end = stage(StageAttention)
		err = m.forEachExpert(func(i int, p app.Pair, ws *workspace) error {
			return trainExpertHead(ws, m.Experts[p], x, targets[p], hidden.peersOf(i), cfg, cfg.AttentionEpochs, q, seedB+int64(i))
		})
		end()
		if err != nil {
			return err
		}
	}
	return nil
}

func logf(w io.Writer, format string, args ...interface{}) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}

// workspace is what one forEachExpert worker carries from expert to expert:
// tapes whose arenas have already grown to an expert's size, one Adam whose
// moment buffer is re-zeroed per expert, and the one gradient buffer the
// worker lends to whichever expert it is training. A generation has 76–399
// experts of one shape; without it each of them allocated, page-faulted and
// dropped its own copy (1.2 MB of moments at the paper's width), and kept a
// gradient as large as its weights for as long as the model lived.
type workspace struct {
	tape *ad.Tape // training tape
	eval *ad.Tape // gradient-free tape
	adam *opt.Adam
	grad []float64 // backs the Grad of the params being trained
}

func newWorkspace() *workspace {
	return &workspace{tape: ad.NewTape(), eval: ad.NewEvalTape(), adam: opt.NewAdam(nil, 0)}
}

// bindGrads lends params zeroed gradients out of the workspace's buffer for
// the length of one expert's training, and returns the function that takes
// them back: outside it no parameter of a model carries a gradient.
func (ws *workspace) bindGrads(params []*ad.Param) (unbind func()) {
	ws.grad = ad.BindGrads(ws.grad, params)
	return func() { ad.UnbindGrads(params) }
}

// forEachExpert runs fn for every pair with bounded parallelism; fn
// receives the pair's index in training order (the basis of its
// deterministic per-expert seed) and the calling worker's workspace.
func (m *Model) forEachExpert(fn func(i int, p app.Pair, ws *workspace) error) error {
	par := m.Cfg.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > len(m.Pairs) {
		par = len(m.Pairs)
	}
	if par <= 1 {
		ws := newWorkspace()
		for i, p := range m.Pairs {
			if err := fn(i, p, ws); err != nil {
				return err
			}
		}
		return nil
	}
	// A fixed pool of par workers pulls pair indices from a channel — on a
	// 300-component generated topology that is par goroutines total instead
	// of one per (component, resource) pair churning through a semaphore.
	// Results stay deterministic regardless of which worker takes which
	// pair: the per-expert seed is derived from the training-order index,
	// and a workspace hands every expert the same zeroed state.
	idx := make(chan int, len(m.Pairs))
	for i := range m.Pairs {
		idx <- i
	}
	close(idx)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			ws := newWorkspace()
			for i := range idx {
				if err := fn(i, m.Pairs[i], ws); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// hiddenSlab holds every expert's hidden trajectory over one input series in
// one allocation, expert-major: expert i's state at step t is the hid floats
// at (i*steps+t)*hid. It is the layout the inference engine's scratch uses,
// so at any step the experts' states lie steps*hid floats apart and the
// attention sum (ad.PeerSum) and its adjoint read the peers in place.
type hiddenSlab struct {
	data                []float64
	experts, steps, hid int
}

// state returns expert i's hidden state at step t.
func (s *hiddenSlab) state(i, t int) []float64 {
	return s.data[(i*s.steps+t)*s.hid:][:s.hid]
}

// peerStates is one expert's view of a hiddenSlab: its own row and its
// peers' rows, the latter aligned with Attn.Alpha.
type peerStates struct {
	*hiddenSlab
	self int
	idx  []int
}

// peersOf returns expert i's view: it attends to every other expert, in
// training order — the order its Attn.Peers were named in.
func (s *hiddenSlab) peersOf(i int) *peerStates {
	idx := make([]int, 0, s.experts-1)
	for j := 0; j < s.experts; j++ {
		if j != i {
			idx = append(idx, j)
		}
	}
	return &peerStates{hiddenSlab: s, self: i, idx: idx}
}

// attend records the attention context of step t on the tape.
func (ps *peerStates) attend(t *ad.Tape, a *layers.Attention, step int) *ad.Value {
	return a.Apply(t, ps.idx, ps.data[step*ps.hid:], ps.steps*ps.hid, ps.hid)
}

// allHiddenStates computes every expert's hidden trajectory over x, in
// parallel, each into its own rows of one slab.
func (m *Model) allHiddenStates(x [][]float64) (*hiddenSlab, error) {
	hid := m.Cfg.Hidden
	s := &hiddenSlab{data: make([]float64, len(m.Pairs)*len(x)*hid), experts: len(m.Pairs), steps: len(x), hid: hid}
	err := m.forEachExpert(func(i int, p app.Pair, ws *workspace) error {
		e := m.Experts[p]
		if e.Hidden != hid {
			return fmt.Errorf("estimator: %s: hidden width %d in a %d-wide model", p, e.Hidden, hid)
		}
		e.hiddenInto(ws.eval, x, s.data[i*len(x)*hid:(i+1)*len(x)*hid])
		return nil
	})
	return s, err
}

// trainExpert runs truncated-BPTT training of one expert for the given
// number of epochs, with a zero attention context (phase A).
func trainExpert(ws *workspace, e *Expert, x [][]float64, target []float64, cfg Config, epochs int, q []float64, seed int64) error {
	if len(x) != len(target) {
		return fmt.Errorf("estimator: %s: %d inputs vs %d targets", e.Pair, len(x), len(target))
	}
	zeroAttn := make([]float64, e.Hidden)
	zeroH := make([]float64, e.Hidden)
	var h *ad.Value
	return trainChunks(ws, e, PhaseTrain, e.Params(), target, cfg, epochs, q, seed,
		func(tape *ad.Tape, t int, first bool) *ad.Value {
			if first {
				h = tape.Const(zeroH)
			}
			xt := e.maskedInput(tape, x[t])
			h = e.Cell.Step(tape, xt, h)
			return e.stepOutput(tape, xt, h, tape.Const(zeroAttn))
		},
		func() { e.addRegularizationGrads(cfg) })
}

// trainChunks is the training loop both phases share: epochs passes over the
// series in ChunkLen-window chunks, visited in an order shuffled from seed
// (one Shuffle per epoch is the only draw), each chunk's mean pinball loss
// over step's outputs refused if non-finite, differentiated, handed to
// afterBackward and stepped with the workspace's Adam over params; one
// ProgressEvent per epoch. step records the expert's output for window t on
// the tape; first marks a chunk's first window, where recurrent state
// restarts.
func trainChunks(ws *workspace, e *Expert, phase string, params []*ad.Param, target []float64, cfg Config, epochs int, q []float64, seed int64,
	step func(tape *ad.Tape, t int, first bool) *ad.Value, afterBackward func()) error {
	defer ws.bindGrads(params)()
	ws.adam.Reset(params)
	ws.adam.LR, ws.adam.ClipNorm = cfg.LR, cfg.ClipNorm

	rng := rand.New(rand.NewSource(seed))
	nChunks := (len(target) + cfg.ChunkLen - 1) / cfg.ChunkLen
	order := make([]int, nChunks)
	for i := range order {
		order[i] = i
	}
	tape := ws.tape
	// The target triple and per-chunk loss list are reused across chunks
	// and epochs: Pinball copies the targets onto the tape, and the
	// SumScalars operand slice is only read up to Backward below.
	tgt := make([]float64, len(q))
	losses := make([]*ad.Value, 0, cfg.ChunkLen)

	for ep := 0; ep < epochs; ep++ {
		epochStart := time.Now()
		epochLoss := 0.0
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, ci := range order {
			from := ci * cfg.ChunkLen
			to := from + cfg.ChunkLen
			if to > len(target) {
				to = len(target)
			}
			tape.Reset()
			losses = losses[:0]
			for t := from; t < to; t++ {
				y := step(tape, t, t == from)
				for j := range tgt {
					tgt[j] = target[t]
				}
				losses = append(losses, tape.Pinball(y, tgt, q))
			}
			total := tape.SumScalars(losses...)
			mean := tape.ScaleConst(total, 1/float64(to-from))
			if err := finiteLoss(e, mean, ep); err != nil {
				return err
			}
			tape.Backward(mean)
			epochLoss += mean.Data[0]
			afterBackward()
			ws.adam.Step()
		}
		if cfg.Progress != nil {
			cfg.Progress(ProgressEvent{
				Pair: e.Pair.String(), Phase: phase,
				Epoch: ep + 1, Epochs: epochs,
				Loss:     epochLoss / float64(nChunks),
				Duration: time.Since(epochStart),
			})
		}
	}
	return nil
}

// finiteLoss refuses a chunk whose mean loss is NaN or ±Inf, before it is
// differentiated: one such step writes NaN into every parameter the
// optimizer touches, and a generation of NaN weights cannot even be
// JSON-encoded by /v1/estimate. Failing the expert fails the generation, so
// the previous one keeps serving.
func finiteLoss(e *Expert, mean *ad.Value, epoch int) error {
	if l := mean.Data[0]; !finite(l) {
		return fmt.Errorf("estimator: %s: non-finite training loss %v in epoch %d (non-finite telemetry or diverged weights)", e.Pair, l, epoch+1)
	}
	return nil
}

// finite reports whether v is neither NaN nor ±Inf: v−v is 0 for every
// finite v and NaN otherwise.
func finite(v float64) bool { return v-v == 0 }

// trainExpertHead runs phase B for one expert: with the recurrent trunk,
// mask, and bypass frozen, it fits only the attention weights α and the
// output head V against the (now fixed) own and peer hidden states.
func trainExpertHead(ws *workspace, e *Expert, x [][]float64, target []float64, peers *peerStates, cfg Config, epochs int, q []float64, seed int64) error {
	if !e.UseAttention || len(e.Attn.Peers) == 0 || peers == nil {
		return nil
	}
	// The bypass contribution is frozen, so it is computed once per step —
	// a pure forward pass on the gradient-free tape. The other frozen part,
	// the expert's own hidden trajectory, is already in the slab.
	var bypass []float64
	if e.UseBypass {
		bypass = make([]float64, 3*len(x))
		t := ws.eval
		for i, row := range x {
			t.Reset()
			copy(bypass[3*i:], e.Bypass.Apply(t, e.maskedInput(t, row)).Data)
		}
	}
	return trainChunks(ws, e, PhaseAttention, append(e.Head.Params(), e.Attn.Params()...), target, cfg, epochs, q, seed,
		func(tape *ad.Tape, t int, _ bool) *ad.Value {
			h := tape.Const(peers.state(peers.self, t))
			attn := peers.attend(tape, e.Attn, t)
			y := e.Head.Apply(tape, tape.Concat(attn, h))
			if e.UseBypass {
				y = tape.Add(y, tape.Const(bypass[3*t:3*t+3]))
			}
			return y
		},
		func() {})
}

// addRegularizationGrads adds the L1 attribution penalties' gradients on
// top of the loss gradients accumulated by backprop.
func (e *Expert) addRegularizationGrads(cfg Config) {
	if cfg.MaskL1 > 0 && e.UseMask {
		m := e.Mask.M
		for i, v := range m.Data {
			s := ad.Logistic(v)
			m.Grad[i] += cfg.MaskL1 * s * (1 - s)
		}
	}
	if cfg.BypassL1 > 0 && e.UseBypass {
		w := e.Bypass.W
		for i, v := range w.Data {
			switch {
			case v > 0:
				w.Grad[i] += cfg.BypassL1
			case v < 0:
				w.Grad[i] -= cfg.BypassL1
			}
		}
	}
}

// PredictVectors estimates the utilization of every pair for the windows'
// feature vectors (extracted against m.Space), in raw resource units;
// monotone counters resume from their TargetScale base. It runs the tape
// forward training uses, and is the oracle the compiled engine
// (internal/estimator/infer) is held to bit for bit: every estimate the repo
// reports is read through that engine, never through this.
func (m *Model) PredictVectors(series []features.Vector) (map[app.Pair]Estimate, error) {
	raw := features.Matrix(series)
	x := m.FeatScaler.Apply(raw)
	var hidden *hiddenSlab
	if m.Cfg.UseAttention && len(m.Pairs) > 1 {
		var err error
		hidden, err = m.allHiddenStates(x)
		if err != nil {
			return nil, err
		}
	}
	out := make(map[app.Pair]Estimate, len(m.Pairs))
	var mu sync.Mutex
	err := m.forEachExpert(func(i int, p app.Pair, ws *workspace) error {
		var peers *peerStates
		if hidden != nil {
			peers = hidden.peersOf(i)
		}
		triples, err := m.Experts[p].forward(ws.eval, x, peers)
		if err != nil {
			return err
		}
		var est Estimate
		m.TargetScales[p].DescaleInto(triples, &est)
		mu.Lock()
		out[p] = est
		mu.Unlock()
		return nil
	})
	return out, err
}

// DescaleInto is the buffer-reusing form of descaling: it writes the raw
// resource units into est, growing est's slices only when their capacity is
// insufficient. It is the single descale implementation, re-integrating
// delta-kind targets and repairing any quantile crossing — the tape oracle
// above and the inference engine (internal/estimator/infer) both run it, so
// their raw-unit outputs cannot diverge.
func (ts *TargetScale) DescaleInto(triples [][3]float64, est *Estimate) {
	n := len(triples)
	est.Exp = resizeFloats(est.Exp, n)
	est.Low = resizeFloats(est.Low, n)
	est.Up = resizeFloats(est.Up, n)
	if ts.Kind == kindDelta {
		accE, accL, accU := ts.Base, ts.Base, ts.Base
		for i, tr := range triples {
			e, l, u := ordered(tr)
			accE += e * ts.Scale
			accL += l * ts.Scale
			accU += u * ts.Scale
			est.Exp[i], est.Low[i], est.Up[i] = accE, accL, accU
		}
		return
	}
	for i, tr := range triples {
		e, l, u := ordered(tr)
		est.Exp[i] = e * ts.Scale
		est.Low[i] = l * ts.Scale
		est.Up[i] = u * ts.Scale
		if est.Exp[i] < 0 {
			est.Exp[i] = 0
		}
		if est.Low[i] < 0 {
			est.Low[i] = 0
		}
		if est.Up[i] < 0 {
			est.Up[i] = 0
		}
	}
}

// resizeFloats returns s resliced to length n, reallocating only when the
// capacity is insufficient.
func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// ordered repairs quantile crossing: low ≤ exp ≤ up.
func ordered(tr [3]float64) (exp, low, up float64) {
	exp, low, up = tr[0], tr[1], tr[2]
	if low > exp {
		low = exp
	}
	if up < exp {
		up = exp
	}
	return exp, low, up
}
