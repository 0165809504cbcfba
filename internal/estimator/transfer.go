package estimator

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/features"
	"repro/internal/trace"
)

// This file implements the §6 extensions the paper sketches: transfer
// learning (warm-starting new experts from trained ones, motivated by the
// Figure-21 observation that experts for similar components converge to
// similar parameters) and adaptation to concept drift (continuing training
// on fresh telemetry).

// WarmStart is a hook invoked for every freshly initialised expert before
// training begins, letting callers seed parameters from a trained model.
type WarmStart func(pair app.Pair, e *Expert) error

// TrainWarm is Train with a warm-start hook. A nil hook is plain Train.
func TrainWarm(windows [][]trace.Batch, usage map[app.Pair][]float64, cfg Config, warm WarmStart) (*Model, error) {
	m, x, targets, err := buildModel(windows, usage, cfg)
	if err != nil {
		return nil, err
	}
	if warm != nil {
		for _, p := range m.Pairs {
			if err := warm(p, m.Experts[p]); err != nil {
				return nil, fmt.Errorf("estimator: warm start %s: %w", p, err)
			}
		}
	}
	if err := m.trainAll(x, targets, cfg); err != nil {
		return nil, err
	}
	return m, nil
}

// FromModel returns a WarmStart that seeds every new expert from the source
// model's expert for the same pair, when one exists with matching feature
// and hidden dimensions. Pairs the source never learned — or whose shapes
// changed because the feature space grew — start cold. This is the
// generation-to-generation warm start of the continuous-learning pipeline:
// retraining over a fresh telemetry window resumes from the previous
// generation's parameters instead of from scratch.
func FromModel(src *Model) WarmStart {
	return func(p app.Pair, e *Expert) error {
		if src == nil {
			return nil
		}
		se, ok := src.Experts[p]
		if !ok || se.InDim != e.InDim || se.Hidden != e.Hidden {
			return nil
		}
		sp, dp := se.Params(), e.Params()
		for i := range dp {
			// The attention weight vectors may differ in peer count; skip
			// any parameter whose size differs (attention is relearned).
			if len(sp[i].Data) != len(dp[i].Data) {
				continue
			}
			copy(dp[i].Data, sp[i].Data)
		}
		return nil
	}
}

// Update adapts the model to fresh telemetry (concept drift, §6): it
// extracts features with the existing space and scalers and continues
// training every expert for the given number of epochs. Invocation paths
// unseen during the original learning phase are reported so the caller can
// decide when drift warrants a full re-learn. It trains in place, so only
// on a model no engine has been compiled over (see Model).
func (m *Model) Update(windows [][]trace.Batch, usage map[app.Pair][]float64, epochs int) (unknownPaths float64, err error) {
	if epochs <= 0 {
		return 0, fmt.Errorf("estimator: Update epochs must be positive")
	}
	series := m.Space.ExtractSeries(windows)
	for _, v := range series {
		unknownPaths += v.Unknown
	}
	raw := features.Matrix(series)
	x := m.FeatScaler.Apply(raw)

	targets := make(map[app.Pair][]float64, len(m.Pairs))
	for _, p := range m.Pairs {
		s, ok := usage[p]
		if !ok {
			return unknownPaths, fmt.Errorf("estimator: Update missing series for %s", p)
		}
		if len(s) != len(windows) {
			return unknownPaths, fmt.Errorf("estimator: Update %s has %d samples for %d windows", p, len(s), len(windows))
		}
		ts := m.TargetScales[p]
		targets[p] = ts.Scaled(s)
		if ts.Kind == kindDelta {
			// Resume the monotone counter from the fresh data.
			ts.Base = s[len(s)-1]
		}
	}

	// Continue phase A on the fresh data, then refresh the attention stage
	// against the updated trunks.
	return unknownPaths, m.trainPhases(x, targets, m.Cfg, epochs, m.Cfg.Seed+7777, m.Cfg.Seed+8888)
}
