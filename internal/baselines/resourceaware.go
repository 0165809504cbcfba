package baselines

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/app"
	"repro/internal/estimator"
	"repro/internal/nn/ad"
	"repro/internal/nn/layers"
)

// RAConfig configures the resource-aware deep-learning baseline.
type RAConfig struct {
	// Hidden is the GRU width.
	Hidden int
	// Epochs is the number of training epochs.
	Epochs int
	// ChunkLen is the truncated-BPTT segment length.
	ChunkLen int
	// LR is the Adam learning rate.
	LR float64
	// ClipNorm bounds the gradient norm.
	ClipNorm float64
	// Seed drives initialisation and shuffling.
	Seed int64
}

// DefaultRAConfig returns the configuration used by the experiment drivers.
func DefaultRAConfig() RAConfig {
	return RAConfig{Hidden: 16, Epochs: 12, ChunkLen: 64, LR: 0.01, ClipNorm: 5, Seed: 7}
}

// raExpert forecasts one pair's utilization from its own history: the input
// at step t is the (scaled) value one day earlier plus a time-of-day
// encoding, so the model captures exactly the recurring daily patterns that
// prior work relies on — and nothing about API traffic. Its targets are
// scaled as DeepRest's experts' are.
type raExpert struct {
	cell *layers.GRUCell
	head *layers.Dense
	ts   *estimator.TargetScale
	wpd  int
	// scaled is the full scaled training series, kept to warm the hidden
	// state and seed the first forecast day.
	scaled []float64
}

// ResourceAware is the paper's "resrc-aware DL" baseline: per-pair
// next-day forecasting from historical utilization.
type ResourceAware struct {
	experts map[app.Pair]*raExpert
}

// TrainResourceAware fits one forecaster per pair on the training series,
// with DeepRest's training loop, fan-out and target scaling, so the two
// differ only in what they read. windowsPerDay sets the seasonal period.
func TrainResourceAware(usage map[app.Pair][]float64, windowsPerDay int, cfg RAConfig) (*ResourceAware, error) {
	if windowsPerDay <= 0 {
		return nil, fmt.Errorf("baselines: windowsPerDay must be positive")
	}
	pairs := make([]app.Pair, 0, len(usage))
	for p, series := range usage {
		if len(series) < 2*windowsPerDay {
			return nil, fmt.Errorf("baselines: %s has %d samples; need at least two days (%d)", p, len(series), 2*windowsPerDay)
		}
		pairs = append(pairs, p)
	}
	// Pair i draws from cfg.Seed+i, in name order.
	slices.SortFunc(pairs, func(a, b app.Pair) int { return strings.Compare(a.String(), b.String()) })
	experts := make([]*raExpert, len(pairs))
	err := layers.ForEach(len(pairs), func(i int, ws *layers.Workspace) (err error) {
		experts[i], err = trainRAExpert(ws, pairs[i], usage[pairs[i]], windowsPerDay, cfg, cfg.Seed+int64(i))
		return err
	})
	if err != nil {
		return nil, err
	}
	r := &ResourceAware{experts: make(map[app.Pair]*raExpert, len(pairs))}
	for i, p := range pairs {
		r.experts[p] = experts[i]
	}
	return r, nil
}

// trainRAExpert fits p's forecaster on ws. Its generator draws the weights
// first, then the chunk orders.
func trainRAExpert(ws *layers.Workspace, p app.Pair, series []float64, wpd int, cfg RAConfig, seed int64) (*raExpert, error) {
	ts := estimator.FitTargetScale(p, series)
	e := &raExpert{ts: ts, wpd: wpd, scaled: ts.Scaled(series)}
	rng := rand.New(rand.NewSource(seed))
	e.cell = layers.NewGRUCell(p.String()+".ra", 3, cfg.Hidden, rng)
	e.head = layers.NewDense(p.String()+".ra.head", cfg.Hidden, 1, rng)

	// Training windows are t in [wpd, len): the input needs the value one
	// day earlier.
	zeroH := make([]float64, cfg.Hidden)
	tgt := make([]float64, 1)
	rows := make([][]float64, 0, cfg.ChunkLen)
	var h *ad.Value
	from := 0
	run := layers.Run{Name: p.String(), Params: append(e.cell.Params(), e.head.Params()...), Rng: rng}
	err := ws.Train([]layers.Run{run}, layers.Chunks{
		Windows: len(e.scaled) - wpd, Len: cfg.ChunkLen, Epochs: cfg.Epochs, LR: cfg.LR, ClipNorm: cfg.ClipNorm,
		Loss: func(tape *ad.Tape, t int, first bool) *ad.Value {
			t += wpd
			if first {
				// A chunk is a block, formed under the weights the previous
				// chunk's Adam step left.
				h, from, rows = tape.Const(zeroH), t, rows[:0]
				for u := t; u < min(t+cfg.ChunkLen, len(e.scaled)); u++ {
					rows = append(rows, e.input(e.scaled, u))
				}
				ws.Block.Panels.Reset(cfg.Hidden)
				ws.Block.Form(e.cell, nil, nil, rows)
			}
			h = ws.Block.Step(tape, e.cell, t-from, tape.Const(rows[t-from]), h)
			tgt[0] = e.scaled[t]
			return tape.SquaredError(e.head.Apply(tape, h), tgt)
		},
	})
	if err != nil {
		return nil, fmt.Errorf("baselines: %w", err)
	}
	return e, nil
}

// input builds the input of window t from the history buf holds, the
// training series followed by the forecast so far: the value one day back
// and the window's time of day.
func (e *raExpert) input(buf []float64, t int) []float64 {
	phase := 2 * math.Pi * float64(t%e.wpd) / float64(e.wpd)
	return []float64{buf[t-e.wpd], math.Sin(phase), math.Cos(phase)}
}

// forecast rolls the expert forward for `horizon` windows beyond its
// training series and returns the descaled prediction.
func (e *raExpert) forecast(horizon int) []float64 {
	// Pure inference: run on a gradient-free eval tape. Reset recycles
	// all tape memory each step, so the recurrent state is carried across
	// steps in a buffer the tape does not own.
	tape := ad.NewEvalTape()
	hbuf := make([]float64, e.cell.Hidden)
	// Warm the hidden state over the tail of the training series (one
	// day is plenty: the GRU's memory horizon is far shorter), then step on
	// into the forecast.
	warmFrom := e.wpd
	if len(e.scaled)-warmFrom > 2*e.wpd {
		warmFrom = len(e.scaled) - 2*e.wpd
	}
	n, end := len(e.scaled), len(e.scaled)+horizon
	buf := append(make([]float64, 0, end), e.scaled...)
	var blk layers.GRUBlock
	blk.Panels.Reset(e.cell.Hidden)
	rows := make([][]float64, 0, e.wpd)
	// A window's input reads the value one day back, so a day of windows has
	// all its inputs before its first step: a block is a day.
	for b0 := warmFrom; b0 < end; b0 += e.wpd {
		rows = rows[:0]
		for t := b0; t < min(b0+e.wpd, end); t++ {
			rows = append(rows, e.input(buf, t))
		}
		blk.Form(e.cell, nil, nil, rows)
		for j, row := range rows {
			h := blk.Step(tape, e.cell, j, tape.Const(row), tape.Const(hbuf))
			copy(hbuf, h.Data)
			if b0+j >= n {
				buf = append(buf, e.head.Apply(tape, h).Data[0])
			}
			tape.Reset()
		}
	}
	// The forecast is every quantile of its triple.
	triples := make([][3]float64, horizon)
	for i, v := range buf[n:] {
		triples[i] = [3]float64{v, v, v}
	}
	var est estimator.Estimate
	e.ts.DescaleInto(triples, &est)
	return est.Exp
}

// Forecast returns the baseline's forecast for pair p over the next
// `horizon` windows following the training period. The forecast depends
// only on history — by design it cannot react to the query's API traffic.
func (r *ResourceAware) Forecast(p app.Pair, horizon int) ([]float64, error) {
	e, ok := r.experts[p]
	if !ok {
		return nil, fmt.Errorf("baselines: resource-aware DL has no model for %s", p)
	}
	return e.forecast(horizon), nil
}
