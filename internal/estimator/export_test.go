package estimator

import (
	"slices"

	"repro/internal/app"
	"repro/internal/trace"
)

// TrainDense trains the all-paths model: every expert reads every path.
func TrainDense(windows [][]trace.Batch, usage map[app.Pair][]float64, cfg Config) (*Model, error) {
	m, x, targets, err := buildDense(windows, usage, cfg)
	if err != nil {
		return nil, err
	}
	return m, m.train(x, targets, cfg)
}

// TrainDensePinned trains the all-paths model with each expert's σ(m) pinned
// shut — raw −800, σ exactly +0 — on every path that does not visit its
// component, and its mask and bypass stepping at the visiting expert's rate:
// the dense reference the visiting rule is held to, bit for bit.
func TrainDensePinned(windows [][]trace.Batch, usage map[app.Pair][]float64, cfg Config) (*Model, error) {
	m, x, targets, err := buildDense(windows, usage, cfg)
	if err != nil {
		return nil, err
	}
	paths := m.Space.Paths()
	for _, e := range m.Experts {
		read := visits(paths, e.Component)
		e.rate = inputRate(len(paths), len(read))
		for k := range e.Mask.M.Data {
			if !slices.Contains(read, k) {
				e.Mask.M.Data[k] = -800
			}
		}
	}
	return m, m.train(x, targets, cfg)
}

// buildDense builds the all-paths model.
func buildDense(windows [][]trace.Batch, usage map[app.Pair][]float64, cfg Config) (*Model, [][]float64, map[app.Pair][]float64, error) {
	allPaths = true
	defer func() { allPaths = false }()
	return buildModel(windows, usage, cfg, nil)
}

// TrainPinned trains the model TrainWarm trains cold, with pin applied to
// every expert between its build and its training: an ablation, this
// architecture with some parameters set before training and, when pin
// freezes them, left out of phase A's steps.
func TrainPinned(windows [][]trace.Batch, usage map[app.Pair][]float64, cfg Config, pin func(*Expert)) (*Model, error) {
	m, x, targets, err := buildModel(windows, usage, cfg, nil)
	if err != nil {
		return nil, err
	}
	for _, e := range m.Experts {
		pin(e)
	}
	return m, m.train(x, targets, cfg)
}

// Full pins nothing: the model as it trains.
func Full(*Expert) {}

// NoMask opens σ(m) for good: raw +800, where σ is exactly 1 and σ′ exactly
// 0, so every gradient and L1 term reaching it is ±0 and no step moves it.
// The model with the mask switched off, bit for bit.
func NoMask(e *Expert) {
	for i := range e.Mask.M.Data {
		e.Mask.M.Data[i] = 800
	}
}

// HalfMask freezes σ(m) at 0.5: raw 0, its initial value, out of phase A's
// steps.
func HalfMask(e *Expert) {
	clear(e.Mask.M.Data)
	e.frozen = append(e.frozen, e.Mask.M)
}

// NoBypass zeroes the bypass S and freezes it: its output is +0 at every
// window, as the sum of ±0 products and a +0 bias is.
func NoBypass(e *Expert) {
	clear(e.Bypass.W.Data)
	clear(e.Bypass.B.Data)
	e.frozen = append(e.frozen, e.Bypass.W, e.Bypass.B)
}
