package estimator

import (
	"slices"

	"repro/internal/app"
	"repro/internal/trace"
)

// This file implements the §6 adaptation the paper sketches: a model keeps
// up with a changing application by retraining over fresh telemetry, each
// new expert warm-started from its trained predecessor (motivated by the
// Figure-21 observation that experts for similar components converge to
// similar parameters). It is the one way a model adapts: the
// continuous-learning pipeline retrains every generation through it.

// TrainWarm learns a DeepRest model from application-learning telemetry —
// the windows of trace batches and the aligned utilization series per pair —
// resumed from prev, a model trained earlier on the same application, when
// prev is not nil: every fresh expert whose pair prev learned starts from
// prev's weights instead of its random initialisation, when both models
// number the same invocation paths in the same order and are equally wide.
// The attention weights α are copied only over an equal peer list; anything
// prev cannot match starts cold. seeded counts the experts that started from
// prev. A nil prev trains every expert cold.
func TrainWarm(windows [][]trace.Batch, usage map[app.Pair][]float64, cfg Config, prev *Model) (m *Model, seeded int, err error) {
	m, x, targets, err := buildModel(windows, usage, cfg)
	if err != nil {
		return nil, 0, err
	}
	if prev != nil && slices.Equal(prev.Space.Paths(), m.Space.Paths()) {
		for _, p := range m.Pairs {
			if m.Experts[p].seedFrom(prev.Experts[p]) {
				seeded++
			}
		}
	}
	if err := m.train(x, targets, cfg); err != nil {
		return nil, 0, err
	}
	return m, seeded, nil
}

// seedFrom copies src's weights into the freshly built e over the same
// feature space, and reports whether it did: a missing src or one of another
// width leaves e cold, and α stays zero unless src attended to the same peers.
func (e *Expert) seedFrom(src *Expert) bool {
	if src == nil || src.Hidden != e.Hidden {
		return false
	}
	sp, dp := src.Params(), e.Params()
	for i := range dp {
		if dp[i] == e.Attn.Alpha && !slices.Equal(src.Attn.Peers, e.Attn.Peers) {
			continue
		}
		copy(dp[i].Data, sp[i].Data)
	}
	return true
}
