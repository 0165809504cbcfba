package baselines

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/eval"
)

func TestShallowLinearRecoversLinearTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n, d := 300, 5
	x := make([][]float64, n)
	y := make([]float64, n)
	w := []float64{2, -1, 0.5, 0, 3}
	for i := range x {
		x[i] = make([]float64, d)
		y[i] = 7 // intercept
		for j := range x[i] {
			x[i][j] = rng.Float64()
			y[i] += w[j] * x[i][j]
		}
		y[i] += 0.01 * rng.NormFloat64()
	}
	s, err := TrainShallow(ShallowLinear, x, y, DefaultShallowConfig())
	if err != nil {
		t.Fatal(err)
	}
	pred := s.Predict(x)
	if mape := eval.MAPE(pred, y); mape > 1 {
		t.Errorf("linear in-sample MAPE = %.3f%%", mape)
	}
	if s.kind != ShallowLinear {
		t.Error("Kind mismatch")
	}
}

func TestShallowPolynomialBeatsLinearOnQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n, d := 400, 6
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = rng.Float64()
		}
		// Strongly quadratic target: y = 10·x0² + x1.
		y[i] = 10*x[i][0]*x[i][0] + x[i][1] + 0.01*rng.NormFloat64()
	}
	lin, err := TrainShallow(ShallowLinear, x, y, DefaultShallowConfig())
	if err != nil {
		t.Fatal(err)
	}
	poly, err := TrainShallow(ShallowPolynomial, x, y, DefaultShallowConfig())
	if err != nil {
		t.Fatal(err)
	}
	linErr := eval.MAPE(lin.Predict(x), y)
	polyErr := eval.MAPE(poly.Predict(x), y)
	t.Logf("linear=%.2f%% polynomial=%.2f%%", linErr, polyErr)
	if polyErr >= linErr {
		t.Errorf("polynomial (%.2f%%) should beat linear (%.2f%%) on a quadratic target", polyErr, linErr)
	}
	if polyErr > 3 {
		t.Errorf("polynomial in-sample MAPE = %.2f%%", polyErr)
	}
}

func TestShallowValidation(t *testing.T) {
	if _, err := TrainShallow(ShallowLinear, nil, nil, DefaultShallowConfig()); err == nil {
		t.Error("empty data must fail")
	}
	if _, err := TrainShallow(ShallowLinear, [][]float64{{1}}, []float64{1, 2}, DefaultShallowConfig()); err == nil {
		t.Error("misaligned data must fail")
	}
}

func TestShallowPredictNonNegative(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}}
	y := []float64{2, 1, 0}
	s, err := TrainShallow(ShallowLinear, x, y, DefaultShallowConfig())
	if err != nil {
		t.Fatal(err)
	}
	pred := s.Predict([][]float64{{10}})
	if pred[0] < 0 {
		t.Errorf("prediction %v should be clamped at 0 (utilizations are non-negative)", pred[0])
	}
}

func TestTopCorrelated(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 200
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		y[i] = 5 * x[i][2] // only feature 2 matters
	}
	top := topCorrelated(x, y, 1)
	if len(top) != 1 || top[0] != 2 {
		t.Errorf("topCorrelated = %v, want [2]", top)
	}
	if got := topCorrelated(x, y, 99); len(got) != 3 {
		t.Errorf("k beyond dim should clamp: %v", got)
	}
}

func TestShallowKindString(t *testing.T) {
	if ShallowLinear.String() != "linear" || ShallowPolynomial.String() != "polynomial" {
		t.Error("kind names wrong")
	}
	if ShallowKind(9).String() == "" {
		t.Error("unknown kind must still render")
	}
}

// The in-sample error decreases with model capacity; ridge keeps the
// polynomial from degenerating even with collinear inputs.
func TestShallowCollinearStability(t *testing.T) {
	n := 100
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		v := float64(i) / float64(n)
		x[i] = []float64{v, v, v} // perfectly collinear
		y[i] = 3 * v
	}
	s, err := TrainShallow(ShallowPolynomial, x, y, DefaultShallowConfig())
	if err != nil {
		t.Fatal(err)
	}
	pred := s.Predict(x)
	for i := range pred {
		if math.IsNaN(pred[i]) || math.IsInf(pred[i], 0) {
			t.Fatal("unstable prediction on collinear input")
		}
	}
}
