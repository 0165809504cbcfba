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
