package baselines

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/app"
	"repro/internal/nn/ad"
	"repro/internal/nn/layers"
	"repro/internal/nn/opt"
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
	// Parallelism bounds concurrent per-pair training; 0 = GOMAXPROCS.
	Parallelism int
}

// DefaultRAConfig returns the configuration used by the experiment drivers.
func DefaultRAConfig() RAConfig {
	return RAConfig{Hidden: 16, Epochs: 12, ChunkLen: 64, LR: 0.01, ClipNorm: 5, Seed: 7}
}

// raExpert forecasts one pair's utilization from its own history: the input
// at step t is the (scaled) value one day earlier plus a time-of-day
// encoding, so the model captures exactly the recurring daily patterns that
// prior work relies on — and nothing about API traffic.
type raExpert struct {
	cell  *layers.GRUCell
	head  *layers.Dense
	scale float64
	delta bool
	base  float64
	wpd   int
	// scaled is the full scaled training series, kept to warm the hidden
	// state and seed the first forecast day.
	scaled []float64
}

// ResourceAware is the paper's "resrc-aware DL" baseline: per-pair
// next-day forecasting from historical utilization.
type ResourceAware struct {
	cfg     RAConfig
	wpd     int
	experts map[app.Pair]*raExpert
}

// TrainResourceAware fits one forecaster per pair on the training series.
// windowsPerDay sets the seasonal period.
func TrainResourceAware(usage map[app.Pair][]float64, windowsPerDay int, cfg RAConfig) (*ResourceAware, error) {
	if windowsPerDay <= 0 {
		return nil, fmt.Errorf("baselines: windowsPerDay must be positive")
	}
	for p, series := range usage {
		if len(series) < 2*windowsPerDay {
			return nil, fmt.Errorf("baselines: %s has %d samples; need at least two days (%d)", p, len(series), 2*windowsPerDay)
		}
	}
	r := &ResourceAware{cfg: cfg, wpd: windowsPerDay, experts: make(map[app.Pair]*raExpert, len(usage))}

	pairs := make([]app.Pair, 0, len(usage))
	for p := range usage {
		pairs = append(pairs, p)
	}
	// Deterministic order for reproducible seeding.
	for i := 1; i < len(pairs); i++ {
		for j := i; j > 0 && pairs[j].String() < pairs[j-1].String(); j-- {
			pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
		}
	}

	par := cfg.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i, p := range pairs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, p app.Pair) {
			defer wg.Done()
			defer func() { <-sem }()
			e := trainRAExpert(p, usage[p], windowsPerDay, cfg, cfg.Seed+int64(i))
			mu.Lock()
			r.experts[p] = e
			mu.Unlock()
		}(i, p)
	}
	wg.Wait()
	return r, nil
}

func trainRAExpert(p app.Pair, series []float64, wpd int, cfg RAConfig, seed int64) *raExpert {
	e := &raExpert{delta: p.Resource == app.DiskUsage, scale: 1, wpd: wpd}
	raw := series
	if e.delta {
		e.base = series[len(series)-1]
		raw = diff(series)
	}
	max := 0.0
	for _, v := range raw {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	if max > 0 {
		e.scale = max
	}
	e.scaled = make([]float64, len(raw))
	for i, v := range raw {
		e.scaled[i] = v / e.scale
	}

	rng := rand.New(rand.NewSource(seed))
	e.cell = layers.NewGRUCell(p.String()+".ra", 3, cfg.Hidden, rng)
	e.head = layers.NewDense(p.String()+".ra.head", cfg.Hidden, 1, rng)
	params := append(e.cell.Params(), e.head.Params()...)
	ad.BindGrads(nil, params)
	defer ad.UnbindGrads(params)
	optimizer := opt.NewAdam(params, cfg.LR)
	optimizer.ClipNorm = cfg.ClipNorm

	// Training steps: t in [wpd, len) — the input needs the value one
	// day earlier.
	start := wpd
	n := len(e.scaled) - start
	nChunks := (n + cfg.ChunkLen - 1) / cfg.ChunkLen
	order := make([]int, nChunks)
	for i := range order {
		order[i] = i
	}
	tape := ad.NewTape()
	var blk layers.GRUBlock
	zeroH := make([]float64, cfg.Hidden)
	tgt := make([]float64, 1)
	losses := make([]*ad.Value, 0, cfg.ChunkLen)
	rows := make([][]float64, 0, cfg.ChunkLen)
	for ep := 0; ep < cfg.Epochs; ep++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, ci := range order {
			from := start + ci*cfg.ChunkLen
			to := min(from+cfg.ChunkLen, len(e.scaled))
			// A chunk is a block, formed under the weights the previous
			// chunk's optimizer step left.
			rows = rows[:0]
			for t := from; t < to; t++ {
				rows = append(rows, e.input(e.scaled, t))
			}
			blk.Panels.Reset(cfg.Hidden)
			blk.Form(e.cell, nil, rows)
			tape.Reset()
			h := tape.Const(zeroH)
			losses = losses[:0]
			for j, row := range rows {
				h = blk.Step(tape, e.cell, j, tape.Const(row), h)
				y := e.head.Apply(tape, h)
				tgt[0] = e.scaled[from+j]
				losses = append(losses, tape.SquaredError(y, tgt))
			}
			total := tape.SumScalars(losses...)
			mean := tape.ScaleConst(total, 1/float64(to-from))
			tape.Backward(mean)
			optimizer.Step()
		}
	}
	return e
}

func diff(series []float64) []float64 {
	out := make([]float64, len(series))
	for i := 1; i < len(series); i++ {
		out[i] = series[i] - series[i-1]
	}
	return out
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
	out := make([]float64, horizon)
	acc := e.base
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
		blk.Form(e.cell, nil, rows)
		for j, row := range rows {
			h := blk.Step(tape, e.cell, j, tape.Const(row), tape.Const(hbuf))
			copy(hbuf, h.Data)
			if t := b0 + j; t >= n {
				pred := e.head.Apply(tape, h).Data[0]
				buf = append(buf, pred)
				v := pred * e.scale
				if e.delta {
					acc += v
					out[t-n] = acc
				} else {
					if v < 0 {
						v = 0
					}
					out[t-n] = v
				}
			}
			tape.Reset()
		}
	}
	return out
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
