// Package loss provides the scalar loss and error metrics used to train and
// evaluate resource estimators: the quantile (pinball) loss of the paper's
// Equation 5, plus the paper's headline error metric.
package loss

import "math"

// Pinball returns Q(Δ|δ): δ·Δ for Δ ≥ 0 and (δ−1)·Δ otherwise (Equation 5).
func Pinball(delta, q float64) float64 {
	if delta >= 0 {
		return q * delta
	}
	return (q - 1) * delta
}

// Quantiles returns the three quantile levels of the paper's Equation 6 for
// a δ-confidence interval: the median plus the symmetric lower and upper
// tails ( (1−δ)/2 and δ+(1−δ)/2 ).
func Quantiles(delta float64) [3]float64 {
	return [3]float64{0.5, (1 - delta) / 2, delta + (1-delta)/2}
}

// MAPE returns the mean absolute percentage error in percent, the paper's
// headline metric ("how many resources will be under/over-estimated on
// average at a time step"). Actual values below floor are clamped to floor
// to keep near-zero utilizations from exploding the metric.
func MAPE(pred, actual []float64, floor float64) float64 {
	if len(pred) == 0 {
		return 0
	}
	if floor <= 0 {
		floor = 1e-9
	}
	s := 0.0
	for i, p := range pred {
		den := math.Abs(actual[i])
		if den < floor {
			den = floor
		}
		s += math.Abs(p-actual[i]) / den
	}
	return 100 * s / float64(len(pred))
}
