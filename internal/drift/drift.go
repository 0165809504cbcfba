// Package drift quantifies how far a trained DeepRest model has drifted
// from live telemetry — the §6 "adaptation to application evolution" signal,
// promoted out of the experiment driver (internal/experiments/ext_drift.go)
// into a reusable API the continuous-learning pipeline consumes.
//
// Two kinds of drift are scored:
//
//   - topology drift: traces exercise invocation paths the feature space has
//     never seen (a new component, operation, or call edge shipped), counted
//     by the feature extractor's Unknown tally;
//   - concept drift: the paths are known but their cost changed (a new
//     version makes a handler 1.4× more expensive), visible as estimation
//     error and confidence intervals that stop covering the measurements.
//
// A Detector turns a Signal into a retrain/no-retrain decision via
// configurable thresholds; the pipeline fires an early retrain when
// Signal.Drifted is set. The package scores estimates and computes none: its
// callers read them from a compiled engine (internal/estimator/infer), the
// one forward every estimate the repo reports goes through.
package drift

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/estimator"
	"repro/internal/eval"
	"repro/internal/features"
)

// Signal summarises one drift measurement of a model against fresh
// telemetry windows.
type Signal struct {
	// Windows is the number of telemetry windows measured.
	Windows int `json:"windows"`
	// UnknownPathFrac is the fraction of span visits whose invocation
	// path the model's feature space has never seen (topology drift).
	UnknownPathFrac float64 `json:"unknown_path_frac"`
	// Coverage is the fraction of (pair, window) observations that fall
	// inside the model's δ-confidence interval. A calibrated model covers
	// ≈δ of them; concept drift pushes measurements outside the band.
	Coverage float64 `json:"coverage"`
	// MeanMAPE averages the per-pair estimation error (percent).
	MeanMAPE float64 `json:"mean_mape"`
	// PairMAPE holds the per-pair estimation error (percent).
	PairMAPE map[app.Pair]float64 `json:"-"`
	// WorstPair and WorstMAPE identify the most mis-estimated pair.
	WorstPair app.Pair `json:"worst_pair"`
	WorstMAPE float64  `json:"worst_mape"`
	// Drifted reports the detector's verdict, Reason the threshold that
	// tripped (empty when not drifted).
	Drifted bool   `json:"drifted"`
	Reason  string `json:"reason,omitempty"`
}

// Detector holds the drift thresholds. The zero value is not useful; start
// from NewDetector.
type Detector struct {
	// MaxUnknownFrac flags topology drift when more than this fraction of
	// span visits hit unknown invocation paths.
	MaxUnknownFrac float64
	// MinCoverage flags concept drift when fewer than this fraction of
	// observations fall inside the confidence interval.
	MinCoverage float64
	// MaxMeanMAPE flags concept drift when the mean estimation error
	// (percent) exceeds this bound.
	MaxMeanMAPE float64
}

// NewDetector returns a detector with the default thresholds.
func NewDetector() *Detector {
	return &Detector{MaxUnknownFrac: 0.05, MinCoverage: 0.5, MaxMeanMAPE: 35}
}

// MeasureVectors scores a model against fresh telemetry: the windows' feature
// vectors, the estimates its compiled engine produced for them, and the
// measured utilization per pair. Of pairs (the model's, in its order) only
// those actual covers are scored; monotone counters (disk usage) are skipped
// because their integration base shifts between training and measurement.
// The returned Signal has Drifted/Reason filled in per the detector
// thresholds.
func (d *Detector) MeasureVectors(series []features.Vector, est map[app.Pair]estimator.Estimate, pairs []app.Pair, actual map[app.Pair][]float64) (Signal, error) {
	sig := Signal{Windows: len(series), PairMAPE: make(map[app.Pair]float64)}
	if len(series) == 0 {
		return sig, fmt.Errorf("drift: no windows to measure")
	}

	// Topology drift: unknown-path fraction from the feature extractor.
	var known, unknown float64
	for _, v := range series {
		unknown += v.Unknown
		for _, c := range v.Counts {
			known += c
		}
	}
	if known+unknown > 0 {
		sig.UnknownPathFrac = unknown / (known + unknown)
	}

	// Concept drift: estimation error and interval coverage.
	var covered, observations int
	for _, p := range pairs {
		measured, ok := actual[p]
		if !ok || len(measured) != len(series) || p.Resource == app.DiskUsage {
			continue
		}
		e := est[p]
		for i, v := range measured {
			observations++
			if v >= e.Low[i] && v <= e.Up[i] {
				covered++
			}
		}
		mape := eval.MAPE(e.Exp, measured)
		sig.PairMAPE[p] = mape
		sig.MeanMAPE += mape
		if mape > sig.WorstMAPE {
			sig.WorstMAPE, sig.WorstPair = mape, p
		}
	}
	if len(sig.PairMAPE) > 0 {
		sig.MeanMAPE /= float64(len(sig.PairMAPE))
	}
	if observations > 0 {
		sig.Coverage = float64(covered) / float64(observations)
	}

	switch {
	case sig.UnknownPathFrac > d.MaxUnknownFrac:
		sig.Drifted = true
		sig.Reason = fmt.Sprintf("unknown-path fraction %.3f exceeds %.3f (topology drift)", sig.UnknownPathFrac, d.MaxUnknownFrac)
	case observations > 0 && sig.Coverage < d.MinCoverage:
		sig.Drifted = true
		sig.Reason = fmt.Sprintf("interval coverage %.2f below %.2f", sig.Coverage, d.MinCoverage)
	case len(sig.PairMAPE) > 0 && sig.MeanMAPE > d.MaxMeanMAPE:
		sig.Drifted = true
		sig.Reason = fmt.Sprintf("mean MAPE %.1f%% exceeds %.1f%% (worst: %s at %.1f%%)", sig.MeanMAPE, d.MaxMeanMAPE, sig.WorstPair, sig.WorstMAPE)
	}
	return sig, nil
}
