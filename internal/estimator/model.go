package estimator

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/app"
	"repro/internal/features"
	"repro/internal/nn/ad"
	"repro/internal/nn/layers"
	"repro/internal/nn/loss"
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
	// Duration is the wall-clock time the epoch took. Phase B trains a
	// panel of experts in lockstep, and each reports the panel's epoch time
	// over the panel's size: the durations still add up to the time spent.
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

// FitTargetScale fits p's scaling to its training series: a disk-usage
// counter is modelled as per-window growth and resumes from its last value,
// and the (differenced) series' largest magnitude maps to 1. The
// resource-aware baseline scales its targets with it too.
func FitTargetScale(p app.Pair, series []float64) *TargetScale {
	ts := &TargetScale{Kind: kindLevel, Scale: 1}
	if p.Resource == app.DiskUsage {
		ts.Kind = kindDelta
		if len(series) > 0 {
			ts.Base = series[len(series)-1]
		}
	}
	peak := 0.0
	for _, v := range ts.Scaled(series) { // at Scale 1, the differenced series
		if a := math.Abs(v); a > peak { // a NaN sample is skipped
			peak = a
		}
	}
	if peak > 0 {
		ts.Scale = peak
	}
	return ts
}

// Scaled returns series in unit scale, differenced first (from a zero first
// window) when it is a counter: the training targets.
func (ts *TargetScale) Scaled(series []float64) []float64 {
	out := make([]float64, len(series))
	for i, v := range series {
		if ts.Kind == kindDelta {
			v = 0
			if i > 0 {
				v = series[i] - series[i-1]
			}
		}
		out[i] = v / ts.Scale
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
// holds its weights once, and serves them lock-free. Training works on a
// model nobody has compiled: a retrain builds a new model and warm-starts it
// by copying (TrainWarm).
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

// buildModel constructs the feature space, scalers, and freshly initialised
// experts, returning the scaled inputs and targets ready for training. spell
// maps a pair's component to its spelling in the windows' paths; nil when
// they spell it as the pair does.
func buildModel(windows [][]trace.Batch, usage map[app.Pair][]float64, cfg Config, spell func(string) string) (*Model, [][]float64, map[app.Pair][]float64, error) {
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
	paths := space.Paths()
	for i, p := range pairs {
		m.TargetScales[p] = FitTargetScale(p, usage[p])
		targets[p] = m.TargetScales[p].Scaled(usage[p])
		c := p.Component
		if spell != nil {
			c = spell(c)
		}
		m.Experts[p] = newExpert(p, c, visits(paths, c), len(paths), cfg.Hidden, peersOf(names, i), cfg, rng)
	}

	return m, x, targets, nil
}

// peersOf lists the experts that expert i of names attends to: every other
// pair, in training order. Training and Load wire every expert by it.
func peersOf(names []string, i int) []string {
	return append(append(make([]string, 0, len(names)-1), names[:i]...), names[i+1:]...)
}

// train runs the two training phases over a freshly built (or warm-started)
// model: phase A for cfg.Epochs, then phase B for cfg.AttentionEpochs; expert
// i draws its chunk order from cfg.Seed+i and cfg.Seed+1000+i.
func (m *Model) train(x [][]float64, targets map[app.Pair][]float64, cfg Config) error {
	quant := loss.Quantiles(cfg.Delta)
	q := quant[:]
	stage := cfg.Stage
	if stage == nil {
		stage = func(string) func() { return func() {} }
	}

	// Phase A: train every expert independently with attention disabled.
	end := stage(StageTrunks)
	err := layers.ForEach(len(m.Pairs), func(i int, ws *layers.Workspace) error {
		p := m.Pairs[i]
		return trainExpert(ws, m.Experts[p], x, targets[p], cfg, cfg.Epochs, q, cfg.Seed+int64(i))
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
	if cfg.AttentionEpochs > 0 && len(m.Pairs) > 1 {
		end = stage(StagePeerStates)
		hidden, err := m.allHiddenStates(x, cfg.ChunkLen)
		end()
		if err != nil {
			return err
		}
		end = stage(StageAttention)
		err = m.trainAttention(hidden, targets, cfg, q)
		end()
		if err != nil {
			return err
		}
	}
	return nil
}

// newWorkspace returns the workspace an expert pass runs on outside
// layers.ForEach.
var newWorkspace = layers.NewWorkspace

// peerStates is one expert's view of a slab of every expert's frozen
// trajectory: every expert's rows, its own among them.
type peerStates struct {
	*layers.Slab
	self int
}

// attend records the attention contexts of the block of windows that starts
// at from on the tape, as one hid×n block for its n windows.
func (ps *peerStates) attend(t *ad.Tape, a *layers.Attention, from int) *ad.Value {
	rows, n, stride := ps.Block(from)
	return a.Apply(t, ps.self, rows, stride, ps.Hidden, n)
}

// newSlab returns a slab for experts trajectories hidden units wide over the
// scaled series x of in features, which it transposes once, in blocks of
// blockLen windows.
func newSlab(x [][]float64, experts, in, hidden, blockLen int) *layers.Slab {
	s := new(layers.Slab)
	s.Reset(experts, len(x), in, hidden, blockLen)
	for t, row := range x {
		col, stride := s.Window(t)
		for k, v := range row[:in] {
			col[k*stride] = v
		}
	}
	return s
}

// allHiddenStates computes every expert's hidden trajectory and bypass
// output over x, in parallel, each into its own rows of one slab cut into
// blocks of blockLen windows.
func (m *Model) allHiddenStates(x [][]float64, blockLen int) (*layers.Slab, error) {
	in, hid := m.Space.Dim(), m.Cfg.Hidden
	s := newSlab(x, len(m.Pairs), in, hid, blockLen)
	err := layers.ForEach(len(m.Pairs), func(i int, ws *layers.Workspace) error {
		p := m.Pairs[i]
		e := m.Experts[p]
		if e.Hidden != hid {
			return fmt.Errorf("estimator: %s: a %d-wide expert in a %d-wide model", p, e.Hidden, hid)
		}
		e.trajectory(ws, s, i)
		return nil
	})
	return s, err
}

// trainExpert runs truncated-BPTT training of one expert for the given
// number of epochs, with a zero attention context (phase A): the shared
// chunk loop (layers.Workspace.Train), its chunk order drawn from seed, with
// window t's loss the pinball loss of the output triple against target[t],
// one ProgressEvent per epoch, and the refusal of a non-finite loss or
// gradient named after the expert. Failing the expert fails the generation,
// so the previous one keeps serving.
func trainExpert(ws *layers.Workspace, e *Expert, x [][]float64, target []float64, cfg Config, epochs int, q []float64, seed int64) error {
	if len(x) != len(target) {
		return fmt.Errorf("estimator: %s: %d inputs vs %d targets", e.Pair, len(x), len(target))
	}
	zero := make([]float64, e.Hidden) // the state a chunk starts from, and the attention context
	tgt := make([]float64, len(q))    // Pinball copies the targets onto the tape, so one triple serves
	var h, xt *ad.Value
	from := 0
	c := layers.Chunks{
		Windows: len(target), Len: cfg.ChunkLen, Epochs: epochs, LR: cfg.LR, ClipNorm: cfg.ClipNorm,
		Loss: func(tape *ad.Tape, t int, first bool) *ad.Value {
			if first {
				// A chunk is a block, formed under the weights the previous
				// chunk's Adam step left.
				h, from = tape.Const(zero), t
				ws.Block.Panels.Reset(e.Hidden)
				ws.Block.Form(e.Cell, e.Inputs, ws.Block.Gate(e.Mask), x[t:min(t+cfg.ChunkLen, len(x))])
			}
			h, xt = e.step(ws, tape, x[t], t-from, h)
			for j := range tgt {
				tgt[j] = target[t]
			}
			return tape.Pinball(e.stepOutput(tape, xt, h, tape.Const(zero)), tgt, q)
		},
		AfterBackward: func() { e.addRegularizationGrads(cfg) },
		Epoch:         progress(cfg, PhaseTrain, epochs, func(int) app.Pair { return e.Pair }),
	}
	params, rates := e.trained()
	ad.BindGrads(nil, e.frozen) // the tape adds to their gradients; no step reads them
	defer ad.UnbindGrads(e.frozen)
	run := layers.Run{Name: e.Pair.String(), Params: params, Rates: rates, Rng: rand.New(rand.NewSource(seed))}
	if err := ws.Train([]layers.Run{run}, c); err != nil {
		return fmt.Errorf("estimator: %w", err)
	}
	return nil
}

// progress returns the Chunks.Epoch hook that reports run r's epochs of
// phase as ProgressEvents of the expert pair(r), or nil without a Progress
// hook.
func progress(cfg Config, phase string, epochs int, pair func(r int) app.Pair) func(r, epoch int, loss float64, took time.Duration) {
	if cfg.Progress == nil {
		return nil
	}
	return func(r, epoch int, loss float64, took time.Duration) {
		cfg.Progress(ProgressEvent{
			Pair: pair(r).String(), Phase: phase,
			Epoch: epoch, Epochs: epochs,
			Loss: loss, Duration: took,
		})
	}
}

// trainAttention runs phase B over the frozen trajectories in slab: the
// experts in training order, cut into panels of layers.PanelExperts, one
// ForEach job each.
func (m *Model) trainAttention(slab *layers.Slab, targets map[app.Pair][]float64, cfg Config, q []float64) error {
	P := len(m.Pairs)
	panels := (P + layers.PanelExperts - 1) / layers.PanelExperts
	return layers.ForEach(panels, func(k int, ws *layers.Workspace) error {
		return m.trainHeads(ws, k*layers.PanelExperts, min((k+1)*layers.PanelExperts, P), slab, targets, cfg, q)
	})
}

// trainHeads runs phase B for a panel of experts, those from i0 up to i1 in
// training order: with the recurrent trunks, masks and bypasses frozen — their
// trajectories and bypass outputs already in the slab, cut at the chunk
// length — it fits only each one's attention weights α and output head V,
// the panel in lockstep (layers.Workspace.FitHeads), expert i's chunk order
// drawn from cfg.Seed+1000+i.
func (m *Model) trainHeads(ws *layers.Workspace, i0, i1 int, slab *layers.Slab, targets map[app.Pair][]float64, cfg Config, q []float64) error {
	heads := make([]layers.Head, 0, i1-i0)
	for i, p := range m.Pairs[i0:i1] {
		e := m.Experts[p]
		heads = append(heads, layers.Head{
			Name: p.String(), Rng: rand.New(rand.NewSource(cfg.Seed + 1000 + int64(i0+i))), Row: i0 + i,
			Alpha: e.Attn.Alpha, W: e.Head.W, B: e.Head.B, Target: targets[p],
		})
	}
	c := layers.Chunks{
		Epochs: cfg.AttentionEpochs, LR: cfg.LR, ClipNorm: cfg.ClipNorm,
		Epoch: progress(cfg, PhaseAttention, cfg.AttentionEpochs, func(r int) app.Pair { return m.Pairs[i0+r] }),
	}
	if err := ws.FitHeads(slab, q, heads, c); err != nil {
		return fmt.Errorf("estimator: %w", err)
	}
	return nil
}

// addRegularizationGrads adds the L1 attribution penalties' gradients on
// top of the loss gradients accumulated by backprop.
func (e *Expert) addRegularizationGrads(cfg Config) {
	if cfg.MaskL1 > 0 {
		m := e.Mask.M
		for i, v := range m.Data {
			s := ad.Logistic(v)
			m.Grad[i] += cfg.MaskL1 * s * (1 - s)
		}
	}
	if cfg.BypassL1 > 0 {
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
	var hidden *layers.Slab
	if len(m.Pairs) > 1 {
		var err error
		hidden, err = m.allHiddenStates(x, layers.BlockWindows)
		if err != nil {
			return nil, err
		}
	}
	out := make(map[app.Pair]Estimate, len(m.Pairs))
	var mu sync.Mutex
	err := layers.ForEach(len(m.Pairs), func(i int, ws *layers.Workspace) error {
		p := m.Pairs[i]
		var peers *peerStates
		if hidden != nil {
			peers = &peerStates{hidden, i}
		}
		triples, err := m.Experts[p].forward(ws, x, peers)
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
	est.Exp = layers.Resize(est.Exp, n)
	est.Low = layers.Resize(est.Low, n)
	est.Up = layers.Resize(est.Up, n)
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
