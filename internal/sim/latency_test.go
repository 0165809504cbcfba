package sim

import (
	"math"
	"testing"

	"repro/internal/app"
)

func toyLatencyModel(t *testing.T) *LatencyModel {
	t.Helper()
	m, err := NewLatencyModel(app.Toy())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLatencyMM1Arithmetic(t *testing.T) {
	m := toyLatencyModel(t)
	// Toy /read visits Gateway (300 mc-ms), Service (900), DB (1100).
	// Override the capacities so every station's service time is exactly
	// 100 ms and the M/M/1 arithmetic has closed-form expectations.
	if err := m.SetCapacity("Gateway", 3); err != nil {
		t.Fatal(err)
	}
	if err := m.SetCapacity("Service", 9); err != nil {
		t.Fatal(err)
	}
	if err := m.SetCapacity("DB", 11); err != nil {
		t.Fatal(err)
	}
	// With these capacities each station's service time is exactly
	// 100 ms; at 5 req/s, ρ = 0.5 and W = ρ/(μ−λ) = 0.5/5 = 100 ms.
	reqs := map[string]int{"/read": 300} // 5 req/s over 60 s
	loads, lats, err := m.Evaluate(reqs, 60)
	if err != nil {
		t.Fatal(err)
	}
	db := loads["DB"]
	if math.Abs(db.ServiceMs-100) > 1e-9 {
		t.Errorf("DB service = %v ms, want 100", db.ServiceMs)
	}
	if math.Abs(db.Utilization-0.5) > 1e-9 {
		t.Errorf("DB utilization = %v, want 0.5", db.Utilization)
	}
	if math.Abs(db.WaitMs-100) > 1e-9 {
		t.Errorf("DB wait = %v ms, want 100", db.WaitMs)
	}
	// End-to-end mean: three stations, each 200 ms sojourn.
	lat := lats["/read"]
	if math.Abs(lat.MeanMs-600) > 1e-9 {
		t.Errorf("mean latency = %v ms, want 600", lat.MeanMs)
	}
	if lat.Saturated {
		t.Error("not saturated at ρ=0.5")
	}
	if lat.P95Ms <= lat.MeanMs {
		t.Error("p95 must exceed the mean")
	}
}

func TestLatencyGrowsWithLoad(t *testing.T) {
	m := toyLatencyModel(t)
	_, low, err := m.Evaluate(map[string]int{"/read": 60}, 60)
	if err != nil {
		t.Fatal(err)
	}
	_, high, err := m.Evaluate(map[string]int{"/read": 600}, 60)
	if err != nil {
		t.Fatal(err)
	}
	if high["/read"].Saturated {
		// At toy capacities this load may saturate; that is also a
		// valid "grows with load" outcome.
		return
	}
	if high["/read"].MeanMs <= low["/read"].MeanMs {
		t.Errorf("latency did not grow with load: %v -> %v", low["/read"].MeanMs, high["/read"].MeanMs)
	}
}

func TestLatencySaturation(t *testing.T) {
	m := toyLatencyModel(t)
	// Overwhelm the DB: at its toy capacity of 60 mcores a read visit
	// takes 1100/60 ≈ 18.3 ms, so μ ≈ 55 visits/s; offer 100/s.
	_, lats, err := m.Evaluate(map[string]int{"/read": 6000}, 60)
	if err != nil {
		t.Fatal(err)
	}
	lat := lats["/read"]
	if !lat.Saturated || !math.IsInf(lat.MeanMs, 1) {
		t.Errorf("expected saturation, got %+v", lat)
	}
}

func TestLatencyCapacityScaling(t *testing.T) {
	m := toyLatencyModel(t)
	reqs := map[string]int{"/read": 120}
	_, before, err := m.Evaluate(reqs, 60)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"Gateway", "Service", "DB"} {
		if err := m.SetCapacity(c, 10000); err != nil {
			t.Fatal(err)
		}
	}
	_, after, err := m.Evaluate(reqs, 60)
	if err != nil {
		t.Fatal(err)
	}
	if after["/read"].MeanMs >= before["/read"].MeanMs && !before["/read"].Saturated {
		t.Errorf("more capacity did not reduce latency: %v -> %v", before["/read"].MeanMs, after["/read"].MeanMs)
	}
}

func TestLatencyValidation(t *testing.T) {
	m := toyLatencyModel(t)
	if err := m.SetCapacity("ghost", 100); err == nil {
		t.Error("unknown component must fail")
	}
	if err := m.SetCapacity("DB", -1); err == nil {
		t.Error("non-positive capacity must fail")
	}
	if _, _, err := m.Evaluate(map[string]int{"/nope": 1}, 60); err == nil {
		t.Error("unknown API must fail")
	}
	if _, _, err := m.Evaluate(nil, 0); err == nil {
		t.Error("bad window must fail")
	}
}
