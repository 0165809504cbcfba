package sim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/app"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/workload"
)

func newToy(t *testing.T, opts ...Option) *Cluster {
	t.Helper()
	c, err := NewCluster(app.Toy(), 1, opts...)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return c
}

func TestNewClusterValidates(t *testing.T) {
	bad := &app.Spec{
		Name:       "bad",
		Components: []app.Component{{Name: "A"}},
		APIs: []app.API{{
			Name:      "/x",
			Templates: []app.Template{{Prob: 0.5, Root: app.Node("A", "op", app.Cost{})}},
		}},
	}
	if _, err := NewCluster(bad, 1); err == nil {
		t.Fatal("invalid spec must be rejected")
	}
}

func TestStepIdle(t *testing.T) {
	c := newToy(t, WithMeasurementNoise(0))
	wr, err := c.Step(nil, 60)
	if err != nil {
		t.Fatal(err)
	}
	// Idle usage equals the components' base consumption.
	if got := wr.Usage[app.Pair{Component: "Gateway", Resource: app.CPU}]; got != 5 {
		t.Errorf("idle Gateway CPU = %v, want 5", got)
	}
	if got := wr.Usage[app.Pair{Component: "DB", Resource: app.Memory}]; got != 150 {
		t.Errorf("idle DB memory = %v, want 150", got)
	}
	if got := wr.Usage[app.Pair{Component: "DB", Resource: app.WriteIOps}]; got != 0 {
		t.Errorf("idle write IOps = %v", got)
	}
	if len(wr.Batches) != 0 {
		t.Error("idle window must produce no traces")
	}
}

func TestStepAccounting(t *testing.T) {
	c := newToy(t, WithMeasurementNoise(0), WithQueueFactor(0))
	const n = 600
	wr, err := c.Step(map[string]int{"/write": n}, 60)
	if err != nil {
		t.Fatal(err)
	}
	// The toy /write chain puts 1400 CPUms and 5 write ops on DB per
	// request. Payload noise averages out at CV/sqrt(n) ≈ 0.4%.
	cpu := wr.Usage[app.Pair{Component: "DB", Resource: app.CPU}]
	wantCPU := 8 + float64(n)*1400/(60*1000)
	if math.Abs(cpu-wantCPU) > 0.05*wantCPU {
		t.Errorf("DB CPU = %v, want ≈%v", cpu, wantCPU)
	}
	iops := wr.Usage[app.Pair{Component: "DB", Resource: app.WriteIOps}]
	wantIOps := float64(n) * 5 / 60
	if math.Abs(iops-wantIOps) > 0.05*wantIOps {
		t.Errorf("IOps = %v, want ≈%v", iops, wantIOps)
	}
	if got := trace.TotalRequests(wr.Batches); got != n {
		t.Errorf("trace batches carry %d requests, want %d", got, n)
	}
}

func TestQueuingSuperlinearity(t *testing.T) {
	base, err := NewCluster(app.Toy(), 1, WithMeasurementNoise(0), WithQueueFactor(0.8))
	if err != nil {
		t.Fatal(err)
	}
	low, _ := base.Step(map[string]int{"/read": 300}, 60)
	high, _ := base.Step(map[string]int{"/read": 900}, 60)
	p := app.Pair{Component: "DB", Resource: app.CPU}
	lowReq := low.Usage[p] - 8
	highReq := high.Usage[p] - 8
	ratio := highReq / lowReq
	if ratio <= 3.05 {
		t.Errorf("3x traffic gave %vx request CPU; queuing should make it superlinear", ratio)
	}
}

func TestDiskMonotone(t *testing.T) {
	c := newToy(t, WithMeasurementNoise(0))
	p := app.Pair{Component: "DB", Resource: app.DiskUsage}
	prev := -1.0
	for i := 0; i < 5; i++ {
		wr, err := c.Step(map[string]int{"/write": 100}, 60)
		if err != nil {
			t.Fatal(err)
		}
		if wr.Usage[p] < prev {
			t.Fatalf("disk usage decreased: %v -> %v", prev, wr.Usage[p])
		}
		prev = wr.Usage[p]
	}
	if prev <= 0 {
		t.Error("disk usage never grew")
	}
}

func TestCacheWarmsAndDecays(t *testing.T) {
	c := newToy(t, WithMeasurementNoise(0))
	p := app.Pair{Component: "DB", Resource: app.Memory}
	var warm float64
	for i := 0; i < 50; i++ {
		wr, _ := c.Step(map[string]int{"/read": 400}, 60)
		warm = wr.Usage[p]
	}
	if warm <= 150 {
		t.Fatalf("cache never warmed: memory %v", warm)
	}
	var cooled float64
	for i := 0; i < 100; i++ {
		wr, _ := c.Step(nil, 60)
		cooled = wr.Usage[p]
	}
	if cooled >= warm {
		t.Errorf("cache never decayed: %v -> %v", warm, cooled)
	}
	if cooled < 150 {
		t.Errorf("memory fell below base: %v", cooled)
	}
}

func TestUnknownAPI(t *testing.T) {
	c := newToy(t)
	if _, err := c.Step(map[string]int{"/nope": 1}, 60); err == nil {
		t.Fatal("unknown API must error")
	}
	if _, err := c.Step(nil, 0); err == nil {
		t.Fatal("non-positive window must error")
	}
}

func TestRunAlignsSeries(t *testing.T) {
	c := newToy(t)
	prog := workload.Uniform(1, workload.DaySpec{Shape: workload.TwoPeak{}, Mix: workload.Mix{"/read": 0.7, "/write": 0.3}, PeakRPS: 20})
	prog.WindowsPerDay = 24
	prog.WindowSeconds = 60
	traffic := prog.Generate()
	run, err := c.Run(traffic)
	if err != nil {
		t.Fatal(err)
	}
	if run.NumWindows() != 24 {
		t.Fatalf("NumWindows = %d", run.NumWindows())
	}
	for _, p := range app.Toy().ResourcePairs() {
		if got := len(run.Usage[p]); got != 24 {
			t.Fatalf("%s series len = %d", p, got)
		}
	}
	sl := run.Slice(6, 12)
	if sl.NumWindows() != 6 {
		t.Fatal("Slice wrong size")
	}
	p := app.Pair{Component: "DB", Resource: app.CPU}
	if sl.Usage[p][0] != run.Usage[p][6] {
		t.Fatal("Slice must align series with windows")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Run {
		c, _ := NewCluster(app.Toy(), 42)
		prog := workload.Uniform(1, workload.DaySpec{Shape: workload.TwoPeak{}, Mix: workload.Mix{"/read": 1}, PeakRPS: 10})
		prog.WindowsPerDay = 12
		prog.WindowSeconds = 60
		r, _ := c.Run(prog.Generate())
		return r
	}
	a, b := run(), run()
	p := app.Pair{Component: "Service", Resource: app.CPU}
	for i := range a.Usage[p] {
		if a.Usage[p][i] != b.Usage[p][i] {
			t.Fatalf("non-deterministic at window %d", i)
		}
	}
}

func TestAttacks(t *testing.T) {
	c := newToy(t, WithMeasurementNoise(0))
	c.Inject(Ransomware{Component: "DB", FromWindow: 1, ToWindow: 2, ExtraCPU: 100, ExtraWriteOps: 50, ExtraWriteKiB: 500, ShedComponent: "Gateway", ShedFraction: 0.5})
	c.Inject(Cryptojack{Component: "Service", FromWindow: 2, ToWindow: 3, ExtraCPU: 70})
	c.Inject(MemoryLeak{Component: "Gateway", FromWindow: 2, MiBPerWindow: 10})

	w0, _ := c.Step(nil, 60)
	if w0.Usage[app.Pair{Component: "DB", Resource: app.CPU}] != 8 {
		t.Error("attack fired before FromWindow")
	}
	w1, _ := c.Step(nil, 60)
	if got := w1.Usage[app.Pair{Component: "DB", Resource: app.CPU}]; got != 108 {
		t.Errorf("ransomware CPU = %v, want 108", got)
	}
	if got := w1.Usage[app.Pair{Component: "DB", Resource: app.WriteIOps}]; got != 50 {
		t.Errorf("ransomware IOps = %v", got)
	}
	if got := w1.Usage[app.Pair{Component: "Gateway", Resource: app.CPU}]; got != 2.5 {
		t.Errorf("shed CPU = %v, want 2.5", got)
	}
	w2, _ := c.Step(nil, 60)
	if got := w2.Usage[app.Pair{Component: "Service", Resource: app.CPU}]; got != 75 {
		t.Errorf("cryptojack CPU = %v, want 75", got)
	}
	if got := w2.Usage[app.Pair{Component: "Gateway", Resource: app.Memory}]; got != 60 {
		t.Errorf("leak memory = %v, want 60", got)
	}
	w3, _ := c.Step(nil, 60)
	if got := w3.Usage[app.Pair{Component: "Service", Resource: app.CPU}]; got != 5 {
		t.Error("cryptojack fired past ToWindow")
	}
	if got := w3.Usage[app.Pair{Component: "Gateway", Resource: app.Memory}]; got != 70 {
		t.Errorf("leak must keep growing: %v", got)
	}
}

// Property: total requests in trace batches always equal the requested
// counts, for any request vector.
func TestTraceConservationProperty(t *testing.T) {
	c := newToy(t)
	f := func(r, w uint16) bool {
		reqs := map[string]int{"/read": int(r % 5000), "/write": int(w % 5000)}
		wr, err := c.Step(reqs, 60)
		if err != nil {
			return false
		}
		return trace.TotalRequests(wr.Batches) == reqs["/read"]+reqs["/write"]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: usage values are never negative.
func TestNonNegativeUsageProperty(t *testing.T) {
	c := newToy(t)
	f := func(r uint16) bool {
		wr, err := c.Step(map[string]int{"/read": int(r % 10000)}, 60)
		if err != nil {
			return false
		}
		for _, v := range wr.Usage {
			if v < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMultinomialSplitsSocial(t *testing.T) {
	// composePost has three templates (0.5/0.3/0.2); with many requests
	// all three should materialise and sum exactly.
	spec, _, err := topo.Resolve("social")
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	wr, err := c.Step(map[string]int{"/composePost": 10000}, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(wr.Batches) != 3 {
		t.Fatalf("expected 3 template batches, got %d", len(wr.Batches))
	}
	total := 0
	for _, b := range wr.Batches {
		total += b.Count
		frac := float64(b.Count) / 10000
		if frac < 0.1 || frac > 0.6 {
			t.Errorf("template share %v implausible", frac)
		}
	}
	if total != 10000 {
		t.Errorf("batch counts sum to %d", total)
	}
}
