package baselines

import (
	"fmt"
	"math"
	"sort"
)

// Shallow regression models over the trace features, reproducing the
// paper's §3 motivation for deep models: with shallow learning "the
// estimation of some resources has higher accuracy when using, e.g., a
// linear function, while the others may perform better with, e.g., a
// polynomial function" — forcing per-resource model selection that DNNs
// avoid. Both learners here are closed-form ridge regressions; the
// polynomial variant adds pairwise interaction and square terms over the
// most relevant features.

// ShallowKind selects the hypothesis class.
type ShallowKind int

// Available shallow hypothesis classes.
const (
	ShallowLinear ShallowKind = iota
	ShallowPolynomial
)

// String names the kind.
func (k ShallowKind) String() string {
	switch k {
	case ShallowLinear:
		return "linear"
	case ShallowPolynomial:
		return "polynomial"
	default:
		return fmt.Sprintf("shallow(%d)", int(k))
	}
}

// Shallow is a fitted shallow regressor for one target series.
type Shallow struct {
	kind ShallowKind
	// coef is [intercept, weights...] over the expanded feature vector.
	coef []float64
	// topIdx selects the raw features used by the polynomial expansion.
	topIdx []int
}

// ShallowConfig tunes the fit.
type ShallowConfig struct {
	// Ridge is the L2 regulariser (default 1e-2).
	Ridge float64
	// PolyTopK bounds how many raw features feed the polynomial
	// expansion, chosen by absolute correlation with the target
	// (default 8; the expansion is O(K²)).
	PolyTopK int
}

// DefaultShallowConfig returns conventional parameters.
func DefaultShallowConfig() ShallowConfig { return ShallowConfig{Ridge: 1e-2, PolyTopK: 8} }

// TrainShallow fits a shallow regressor of the given kind on a feature
// matrix x (rows = windows) and target series y.
func TrainShallow(kind ShallowKind, x [][]float64, y []float64, cfg ShallowConfig) (*Shallow, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("baselines: shallow fit needs aligned data (%d rows, %d targets)", len(x), len(y))
	}
	if cfg.Ridge <= 0 {
		cfg.Ridge = 1e-2
	}
	if cfg.PolyTopK <= 0 {
		cfg.PolyTopK = 8
	}
	s := &Shallow{kind: kind}
	if kind == ShallowPolynomial {
		s.topIdx = topCorrelated(x, y, cfg.PolyTopK)
	}
	rows := make([][]float64, len(x))
	for i, r := range x {
		rows[i] = s.expand(r)
	}
	coef, err := ridgeFit(rows, y, cfg.Ridge)
	if err != nil {
		return nil, fmt.Errorf("baselines: shallow %s fit: %w", kind, err)
	}
	s.coef = coef
	return s, nil
}

// expand maps a raw feature row into the hypothesis class's design row
// (without the intercept, which ridgeFit adds).
func (s *Shallow) expand(row []float64) []float64 {
	if s.kind == ShallowLinear {
		return row
	}
	out := append([]float64(nil), row...)
	for i, a := range s.topIdx {
		for _, b := range s.topIdx[i:] {
			out = append(out, row[a]*row[b])
		}
	}
	return out
}

// Predict evaluates the regressor over a feature matrix.
func (s *Shallow) Predict(x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, raw := range x {
		row := s.expand(raw)
		v := s.coef[0]
		for j, w := range s.coef[1:] {
			if j < len(row) {
				v += w * row[j]
			}
		}
		if v < 0 {
			v = 0
		}
		out[i] = v
	}
	return out
}

// topCorrelated returns the indices of the k features with the largest
// absolute Pearson correlation with y.
func topCorrelated(x [][]float64, y []float64, k int) []int {
	d := len(x[0])
	my := meanF(y)
	type fc struct {
		idx int
		c   float64
	}
	all := make([]fc, d)
	for j := 0; j < d; j++ {
		col := make([]float64, len(x))
		for i := range x {
			col[i] = x[i][j]
		}
		mx := meanF(col)
		var num, vx, vy float64
		for i := range col {
			num += (col[i] - mx) * (y[i] - my)
			vx += (col[i] - mx) * (col[i] - mx)
			vy += (y[i] - my) * (y[i] - my)
		}
		c := 0.0
		if vx > 0 && vy > 0 {
			c = math.Abs(num / math.Sqrt(vx*vy))
		}
		all[j] = fc{j, c}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return all[i].idx < all[j].idx
	})
	if k > d {
		k = d
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].idx
	}
	sort.Ints(out)
	return out
}

func meanF(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// ridgeFit solves min ||Xw − y||² + λ||w||² with an unpenalised intercept
// via the normal equations.
func ridgeFit(rows [][]float64, y []float64, ridge float64) ([]float64, error) {
	d := len(rows[0]) + 1 // intercept
	ata := make([][]float64, d)
	for i := range ata {
		ata[i] = make([]float64, d)
	}
	atb := make([]float64, d)
	design := make([]float64, d)
	for r, row := range rows {
		design[0] = 1
		copy(design[1:], row)
		for i := 0; i < d; i++ {
			if design[i] == 0 {
				continue
			}
			for j := 0; j < d; j++ {
				ata[i][j] += design[i] * design[j]
			}
			atb[i] += design[i] * y[r]
		}
	}
	for i := 1; i < d; i++ {
		ata[i][i] += ridge
	}
	ata[0][0] += 1e-9
	coef, ok := solveLinear(ata, atb)
	if !ok {
		return nil, fmt.Errorf("singular normal equations (%d unknowns)", d)
	}
	return coef, nil
}
