package loss

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPinball(t *testing.T) {
	if got := Pinball(2, 0.9); math.Abs(got-1.8) > 1e-12 {
		t.Errorf("Pinball(2, 0.9) = %v, want 1.8", got)
	}
	if got := Pinball(-2, 0.9); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("Pinball(-2, 0.9) = %v, want 0.2", got)
	}
	if got := Pinball(0, 0.3); got != 0 {
		t.Errorf("Pinball(0, q) = %v, want 0", got)
	}
}

// Property: pinball loss is non-negative for q in (0,1) and any Δ.
func TestPinballNonNegativeProperty(t *testing.T) {
	f := func(delta float64, qraw float64) bool {
		if math.IsNaN(delta) || math.IsInf(delta, 0) {
			return true
		}
		q := math.Mod(math.Abs(qraw), 1)
		if q == 0 {
			q = 0.5
		}
		return Pinball(delta, q) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantiles(t *testing.T) {
	q := Quantiles(0.9)
	if q[0] != 0.5 {
		t.Errorf("median quantile = %v", q[0])
	}
	if math.Abs(q[1]-0.05) > 1e-12 || math.Abs(q[2]-0.95) > 1e-12 {
		t.Errorf("tails = %v, want [0.05 0.95]", q)
	}
	q = Quantiles(0.5)
	if math.Abs(q[1]-0.25) > 1e-12 || math.Abs(q[2]-0.75) > 1e-12 {
		t.Errorf("δ=0.5 tails = %v", q)
	}
}

func TestMAPE(t *testing.T) {
	pred := []float64{2, 4}
	act := []float64{1, 2}
	// |1|/1 + |2|/2 → (1+1)/2 = 1 → 100%.
	if got := MAPE(pred, act, 0.5); math.Abs(got-100) > 1e-9 {
		t.Errorf("MAPE = %v, want 100", got)
	}
	if MAPE(nil, nil, 1) != 0 {
		t.Error("empty series must yield 0")
	}
}

func TestMAPEFloor(t *testing.T) {
	// actual 0.001 with floor 1: error contribution is |pred-act|/1.
	got := MAPE([]float64{0.5}, []float64{0.001}, 1)
	if math.Abs(got-49.9) > 1e-9 {
		t.Errorf("floored MAPE = %v, want 49.9", got)
	}
}

// Property: perfect predictions yield zero MAPE.
func TestZeroErrorProperty(t *testing.T) {
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		return MAPE(vals, vals, 1) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
