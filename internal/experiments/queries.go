package experiments

import (
	"math/rand"
	"sort"

	"repro/internal/workload"
)

// Query builders for the paper's three business scenarios (§5.3). Each
// returns a one-day traffic program over the lab's geometry.

// composeDominatedMix is the Figure 10 scenario: the additional requests
// are primarily /composePost.
func composeDominatedMix() workload.Mix {
	return workload.Mix{
		"/composePost":      0.52,
		"/readTimeline":     0.18,
		"/readHomeTimeline": 0.08,
		"/uploadMedia":      0.10,
		"/getMedia":         0.04,
		"/login":            0.03,
		"/readPost":         0.02,
		"/follow":           0.01,
		"/unfollow":         0.005,
		"/register":         0.005,
		"/searchUser":       0.01,
	}
}

// readDominatedMix is the Figure 11 scenario: dominated by /readTimeline,
// with a similar total volume to Figure 10.
func readDominatedMix() workload.Mix {
	return workload.Mix{
		"/composePost":      0.06,
		"/readTimeline":     0.62,
		"/readHomeTimeline": 0.15,
		"/uploadMedia":      0.03,
		"/getMedia":         0.06,
		"/login":            0.03,
		"/readPost":         0.03,
		"/follow":           0.005,
		"/unfollow":         0.005,
		"/register":         0.005,
		"/searchUser":       0.005,
	}
}

// unseenCompositionMix is the Figure 13b/15 scenario: 10% /composePost,
// 85% /readTimeline, 5% /uploadMedia — never observed during learning.
func unseenCompositionMix() workload.Mix {
	return workload.Mix{
		"/composePost":  0.10,
		"/readTimeline": 0.85,
		"/uploadMedia":  0.05,
	}
}

// jitterMix perturbs a mix's weights by ±spread (relative), keeping the
// scenario recognisable while varying repetitions like the paper's "minor
// variations in ... the composition of APIs".
func jitterMix(m workload.Mix, spread float64, rng *rand.Rand) workload.Mix {
	// Iterate in sorted key order: the jitter consumes randomness per
	// API, so map-iteration order would make repetitions irreproducible.
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make(workload.Mix, len(m))
	for _, k := range keys {
		f := 1 + spread*(2*rng.Float64()-1)
		out[k] = m[k] * f
	}
	return out
}

// queryDay builds a one-day query program on the lab's geometry.
func (l *Lab) queryDay(shape workload.Shape, mix workload.Mix, peakRPS float64, seed int64) *workload.Traffic {
	return l.program([]workload.DaySpec{{Shape: shape, Mix: mix, PeakRPS: peakRPS}}, seed).Generate()
}

// scenarioQueries builds rep query variations for a scenario, jittering the
// mix and the peak volume slightly between repetitions.
func (l *Lab) scenarioQueries(shape workload.Shape, mix workload.Mix, peakRPS float64, reps int, seed int64) []*workload.Traffic {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*workload.Traffic, reps)
	for i := range out {
		m := jitterMix(mix, 0.08, rng)
		p := peakRPS * (1 + 0.05*(2*rng.Float64()-1))
		out[i] = l.queryDay(shape, m, p, seed+int64(i)*17)
	}
	return out
}

// evaluateAll runs Evaluate over a set of queries.
func (l *Lab) evaluateAll(queries []*workload.Traffic) ([]*Evaluation, error) {
	out := make([]*Evaluation, len(queries))
	for i, q := range queries {
		ev, err := l.Evaluate(q)
		if err != nil {
			return nil, err
		}
		out[i] = ev
	}
	return out, nil
}
