package opt

import (
	"math"
	"testing"

	"repro/internal/nn/ad"
)

func TestConstant(t *testing.T) {
	if Constant(0.1).LR(999) != 0.1 {
		t.Fatal("constant schedule must be constant")
	}
}

func TestStepDecay(t *testing.T) {
	s := StepDecay{Base: 1, Factor: 0.5, Every: 10}
	if s.LR(0) != 1 || s.LR(9) != 1 {
		t.Error("first stage wrong")
	}
	if s.LR(10) != 0.5 || s.LR(25) != 0.25 {
		t.Errorf("decay wrong: %v %v", s.LR(10), s.LR(25))
	}
	if (StepDecay{Base: 2}).LR(100) != 2 {
		t.Error("Every=0 must hold the base rate")
	}
}

func TestCosine(t *testing.T) {
	c := Cosine{Base: 1, Min: 0.1, Period: 100}
	if c.LR(0) != 1 {
		t.Errorf("start = %v", c.LR(0))
	}
	mid := c.LR(50)
	if math.Abs(mid-0.55) > 1e-9 {
		t.Errorf("midpoint = %v, want 0.55", mid)
	}
	if c.LR(100) != 0.1 || c.LR(500) != 0.1 {
		t.Error("floor not held")
	}
	// Monotone decreasing over the period.
	prev := math.Inf(1)
	for i := 0; i <= 100; i += 10 {
		if c.LR(i) > prev {
			t.Fatalf("not monotone at %d", i)
		}
		prev = c.LR(i)
	}
}

func TestWarmup(t *testing.T) {
	w := Warmup{Steps: 10, Inner: Constant(1)}
	if got := w.LR(0); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("warmup start = %v", got)
	}
	if w.LR(9) != 1 || w.LR(50) != 1 {
		t.Error("post-warmup rate wrong")
	}
}

func TestScheduledOptimizer(t *testing.T) {
	p := boundParam(1)
	p.Data[0] = 10
	inner := NewSGD([]*ad.Param{p}, 999) // overridden by the schedule
	s := WithSchedule(inner, StepDecay{Base: 0.1, Factor: 0.5, Every: 1})
	// Gradient 1 each step: moves by 0.1, then 0.05.
	p.Grad[0] = 1
	s.Step()
	if math.Abs(p.Data[0]-9.9) > 1e-12 {
		t.Fatalf("after step 1: %v", p.Data[0])
	}
	p.Grad[0] = 1
	s.Step()
	if math.Abs(p.Data[0]-9.85) > 1e-12 {
		t.Fatalf("after step 2: %v", p.Data[0])
	}
	if s.StepIndex() != 2 {
		t.Errorf("StepIndex = %d", s.StepIndex())
	}
	if len(s.Params()) != 1 {
		t.Error("Params not delegated")
	}
}

func TestScheduledAdam(t *testing.T) {
	p := boundParam(1)
	s := WithSchedule(NewAdam([]*ad.Param{p}, 1), Constant(0.02))
	p.Grad[0] = 5
	s.Step()
	// Adam's first step is ≈ ±LR.
	if math.Abs(p.Data[0]+0.02) > 1e-6 {
		t.Fatalf("scheduled Adam first step = %v", p.Data[0])
	}
}
