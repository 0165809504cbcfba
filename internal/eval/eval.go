// Package eval provides the evaluation tooling behind the paper's figures:
// per-pair error tables, the estimation-quality heatmap of Figure 12, PCA
// projection of expert parameters for Figure 21, and small text renderers
// for time series so the experiment drivers can print the same artifacts
// the paper plots.
package eval

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/app"
	"repro/internal/nn/loss"
)

// MAPEFloor is the denominator floor used everywhere MAPE is computed, so
// near-idle windows do not dominate the metric.
const MAPEFloor = 1.0

// MAPE is the paper's headline metric, delegated to the loss package with
// the shared floor.
func MAPE(pred, actual []float64) float64 {
	return loss.MAPE(pred, actual, MAPEFloor)
}

// Heatmap is the estimation-quality matrix of Figure 12 for one algorithm:
// resources as rows, components as columns.
type Heatmap struct {
	// Algorithm names the technique.
	Algorithm string
	// Components are the column labels, Resources the row labels.
	Components []string
	// Resources are the row labels.
	Resources []app.Resource
	// Cells maps pair to error.
	Cells map[app.Pair]float64
}

// NewHeatmap builds a heatmap from per-pair errors for the given component
// columns. Rows cover all five resource kinds.
func NewHeatmap(algorithm string, components []string, errs map[app.Pair]float64) *Heatmap {
	return &Heatmap{
		Algorithm:  algorithm,
		Components: append([]string(nil), components...),
		Resources:  append([]app.Resource(nil), app.AllResources...),
		Cells:      errs,
	}
}

// grade buckets a MAPE value into the qualitative scale used to colour the
// paper's heatmap: green (accurate) through red (inaccurate).
func grade(mape float64) string {
	switch {
	case math.IsNaN(mape):
		return "  ----  "
	case mape < 10:
		return "++      " // strongly accurate
	case mape < 20:
		return "+       "
	case mape < 40:
		return "o       "
	case mape < 80:
		return "-       "
	default:
		return "--      "
	}
}

// Render prints the heatmap as a fixed-width table: each cell shows the
// MAPE and its qualitative grade (++ best … -- worst, ---- inapplicable).
func (h *Heatmap) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", h.Algorithm)
	fmt.Fprintf(&b, "%-12s", "")
	for _, c := range h.Components {
		fmt.Fprintf(&b, " %-22s", c)
	}
	b.WriteString("\n")
	for _, r := range h.Resources {
		fmt.Fprintf(&b, "%-12s", r)
		for _, c := range h.Components {
			v, ok := h.Cells[app.Pair{Component: c, Resource: r}]
			if !ok {
				v = math.NaN()
			}
			if math.IsNaN(v) {
				fmt.Fprintf(&b, " %-22s", "       ----")
			} else {
				fmt.Fprintf(&b, " %6.1f%% %-14s", v, strings.TrimSpace(grade(v)))
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// MeanMAPE averages the applicable cells of the heatmap.
func (h *Heatmap) MeanMAPE() float64 {
	sum, n := 0.0, 0
	for _, v := range h.Cells {
		if !math.IsNaN(v) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// PCA projects row vectors onto their top-k principal components using
// power iteration with deflation. Rows may be high-dimensional (GRU
// parameter vectors); the covariance matrix is never materialised.
func PCA(rows [][]float64, k int, iters int) [][]float64 {
	n := len(rows)
	if n == 0 || k <= 0 {
		return nil
	}
	d := len(rows[0])
	// Center.
	mean := make([]float64, d)
	for _, r := range rows {
		for j, v := range r {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	x := make([][]float64, n)
	for i, r := range rows {
		x[i] = make([]float64, d)
		for j, v := range r {
			x[i][j] = v - mean[j]
		}
	}
	if iters <= 0 {
		iters = 50
	}
	comps := make([][]float64, 0, k)
	for c := 0; c < k; c++ {
		v := make([]float64, d)
		// Deterministic pseudo-random start.
		for j := range v {
			v[j] = math.Sin(float64(j+1) * float64(c+1) * 0.7)
		}
		normalize(v)
		for it := 0; it < iters; it++ {
			// w = Xᵀ X v (implicitly), deflated against found comps.
			w := make([]float64, d)
			for i := range x {
				s := dot(x[i], v)
				axpy(s, x[i], w)
			}
			for _, pc := range comps {
				s := dot(w, pc)
				axpy(-s, pc, w)
			}
			if normalize(w) == 0 {
				break
			}
			v = w
		}
		comps = append(comps, v)
	}
	out := make([][]float64, n)
	for i := range x {
		out[i] = make([]float64, len(comps))
		for c, pc := range comps {
			out[i][c] = dot(x[i], pc)
		}
	}
	return out
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

func axpy(alpha float64, x, y []float64) {
	for i, v := range x {
		y[i] += alpha * v
	}
}

func normalize(v []float64) float64 {
	n := math.Sqrt(dot(v, v))
	if n == 0 {
		return 0
	}
	for i := range v {
		v[i] /= n
	}
	return n
}

// Sparkline renders a series as a unicode mini-chart, the text stand-in for
// the paper's time-series plots.
func Sparkline(series []float64, width int) string {
	if len(series) == 0 {
		return ""
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	if width <= 0 || width > len(series) {
		width = len(series)
	}
	// Downsample by averaging buckets.
	buckets := make([]float64, width)
	per := float64(len(series)) / float64(width)
	for i := 0; i < width; i++ {
		from := int(float64(i) * per)
		to := int(float64(i+1) * per)
		if to <= from {
			to = from + 1
		}
		if to > len(series) {
			to = len(series)
		}
		s := 0.0
		for _, v := range series[from:to] {
			s += v
		}
		buckets[i] = s / float64(to-from)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range buckets {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	var b strings.Builder
	for _, v := range buckets {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(levels)-1))
		}
		b.WriteRune(levels[idx])
	}
	return b.String()
}

// SeriesSummary returns min/mean/max of a series formatted for experiment
// output.
func SeriesSummary(series []float64) string {
	if len(series) == 0 {
		return "(empty)"
	}
	lo, hi, sum := math.Inf(1), math.Inf(-1), 0.0
	for _, v := range series {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
		sum += v
	}
	return fmt.Sprintf("min=%.1f mean=%.1f max=%.1f", lo, sum/float64(len(series)), hi)
}
