package sim

import (
	"reflect"
	"testing"

	"repro/internal/app"
	"repro/internal/faults"
	"repro/internal/workload"
)

// faultScenario is the golden scenario: every injector kind firing over a
// two-day toy run. Changing the schedule semantics, the spec parser, or the
// simulator's fault plumbing changes the fingerprint below.
const faultScenario = "seed=1234;" +
	"crash:comp=DB,from=10,to=13;" +
	"throttle:comp=Service,factor=0.5,from=20,to=30;" +
	"latency:comp=Gateway,factor=2,from=25,to=35;" +
	"dropspans:factor=0.2,from=40,to=60;" +
	"dupspans:factor=0.15,from=50,to=70;" +
	"scrapegap:comp=Service,prob=0.3,from=0,to=80;" +
	"clockskew:skew=2,from=75,to=80"

// goldenFaultFingerprint pins the bit-exact telemetry of the golden
// scenario (toy app, cluster seed 7, 2 days of 48 one-minute windows at
// 30 peak RPS). The same fault seed + spec must reproduce it forever.
const goldenFaultFingerprint = "da0349816ad01f09"

func faultRun(t *testing.T, spec string) *Run {
	t.Helper()
	sched, err := faults.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(app.Toy(), 7)
	if err != nil {
		t.Fatal(err)
	}
	cluster.SetFaults(sched)
	p := workload.Uniform(2, workload.DaySpec{
		Shape:   workload.TwoPeak{},
		Mix:     workload.Mix{"/read": 0.7, "/write": 0.3},
		PeakRPS: 30,
	})
	p.WindowsPerDay = 48
	p.WindowSeconds = 60
	p.Seed = 7
	run, err := cluster.Run(p.Generate())
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestGoldenFaultScenario is the determinism acceptance gate: the same
// fault seed + spec produces bit-identical fault schedules and simulator
// output, pinned against a golden fingerprint.
func TestGoldenFaultScenario(t *testing.T) {
	a := faultRun(t, faultScenario)
	b := faultRun(t, faultScenario)
	if !reflect.DeepEqual(a.Usage, b.Usage) {
		t.Fatal("same seed+spec produced different usage series")
	}
	if !reflect.DeepEqual(a.Windows, b.Windows) {
		t.Fatal("same seed+spec produced different trace windows")
	}
	got := Fingerprint(a)
	if got != goldenFaultFingerprint {
		t.Fatalf("golden fault scenario fingerprint drifted:\n got %s\nwant %s", got, goldenFaultFingerprint)
	}
	// A different fault seed must actually perturb the output.
	other := faultRun(t, "seed=99;"+faultScenario[len("seed=1234;"):])
	if Fingerprint(other) == got {
		t.Fatal("different fault seed produced identical telemetry")
	}
}

func TestCrashZeroesUsageAndFailsRequests(t *testing.T) {
	sched, err := faults.Compile("crash:comp=DB,from=2,to=4")
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(app.Toy(), 3, WithMeasurementNoise(0))
	if err != nil {
		t.Fatal(err)
	}
	cluster.SetFaults(sched)
	reqs := map[string]int{"/read": 100, "/write": 40}
	for w := 0; w < 6; w++ {
		wr, err := cluster.Step(reqs, 60)
		if err != nil {
			t.Fatal(err)
		}
		dbCPU := wr.Usage[app.Pair{Component: "DB", Resource: app.CPU}]
		crashed := w >= 2 && w < 4
		if crashed {
			if dbCPU != 0 {
				t.Fatalf("window %d: crashed DB cpu = %v", w, dbCPU)
			}
			// Every toy request routes through DB, so all of them fail.
			if wr.NumRequests() != 0 {
				t.Fatalf("window %d: %d requests traced through a crashed component", w, wr.NumRequests())
			}
			// The healthy components fall back to their idle baseline.
			if got := wr.Usage[app.Pair{Component: "Service", Resource: app.CPU}]; got != 5 {
				t.Fatalf("window %d: Service cpu = %v, want idle base 5", w, got)
			}
		} else {
			if dbCPU <= 8 {
				t.Fatalf("window %d: healthy DB cpu = %v", w, dbCPU)
			}
			if wr.NumRequests() != 140 {
				t.Fatalf("window %d: requests = %d", w, wr.NumRequests())
			}
		}
	}
}

func TestCrashRestartsCacheCold(t *testing.T) {
	warm := func(spec string) []float64 {
		sched, err := faults.Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		cluster, err := NewCluster(app.Toy(), 3, WithMeasurementNoise(0))
		if err != nil {
			t.Fatal(err)
		}
		cluster.SetFaults(sched)
		var mem []float64
		for w := 0; w < 12; w++ {
			wr, err := cluster.Step(map[string]int{"/read": 200}, 60)
			if err != nil {
				t.Fatal(err)
			}
			mem = append(mem, wr.Usage[app.Pair{Component: "DB", Resource: app.Memory}])
		}
		return mem
	}
	healthy := warm("")
	crashed := warm("crash:comp=DB,from=6,to=7")
	// Before the crash the runs agree; after the restart the cache must
	// rebuild from cold, so memory sits below the uninterrupted run.
	for w := 0; w < 6; w++ {
		if healthy[w] != crashed[w] {
			t.Fatalf("pre-crash window %d diverged: %v vs %v", w, healthy[w], crashed[w])
		}
	}
	if crashed[7] >= healthy[7] {
		t.Fatalf("post-restart memory %v not below warm %v", crashed[7], healthy[7])
	}
}

func TestThrottleAndLatencyInflateCPU(t *testing.T) {
	cpuAt := func(spec, comp string) float64 {
		var sched *faults.Schedule
		if spec != "" {
			var err error
			if sched, err = faults.Compile(spec); err != nil {
				t.Fatal(err)
			}
		}
		cluster, err := NewCluster(app.Toy(), 3, WithMeasurementNoise(0))
		if err != nil {
			t.Fatal(err)
		}
		cluster.SetFaults(sched)
		wr, err := cluster.Step(map[string]int{"/read": 300}, 60)
		if err != nil {
			t.Fatal(err)
		}
		return wr.Usage[app.Pair{Component: comp, Resource: app.CPU}]
	}
	base := cpuAt("", "Service")
	throttled := cpuAt("throttle:comp=Service,factor=0.5,to=2", "Service")
	if throttled <= base {
		t.Fatalf("throttled cpu %v not above baseline %v", throttled, base)
	}
	spiked := cpuAt("latency:comp=Service,factor=3,to=2", "Service")
	if spiked <= base {
		t.Fatalf("latency-spiked cpu %v not above baseline %v", spiked, base)
	}
	// Other components are untouched by a scoped injector.
	if got := cpuAt("throttle:comp=Service,factor=0.5,to=2", "Gateway"); got != cpuAt("", "Gateway") {
		t.Fatalf("throttle on Service leaked to Gateway: %v", got)
	}
}

func TestScrapeGapZeroesMetricsButKeepsTraces(t *testing.T) {
	sched, err := faults.Compile("scrapegap:comp=DB,from=1,to=2")
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(app.Toy(), 3, WithMeasurementNoise(0))
	if err != nil {
		t.Fatal(err)
	}
	cluster.SetFaults(sched)
	for w := 0; w < 3; w++ {
		wr, err := cluster.Step(map[string]int{"/read": 100}, 60)
		if err != nil {
			t.Fatal(err)
		}
		db := wr.Usage[app.Pair{Component: "DB", Resource: app.CPU}]
		if w == 1 {
			if db != 0 {
				t.Fatalf("gapped scrape read %v", db)
			}
			if wr.NumRequests() != 100 {
				t.Fatalf("scrape gap perturbed traces: %d requests", wr.NumRequests())
			}
		} else if db == 0 {
			t.Fatalf("window %d: healthy scrape read 0", w)
		}
	}
}

func TestCollectorDropAndDuplicate(t *testing.T) {
	count := func(spec string) int {
		sched, err := faults.Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		cluster, err := NewCluster(app.Toy(), 3)
		if err != nil {
			t.Fatal(err)
		}
		cluster.SetFaults(sched)
		total := 0
		for w := 0; w < 10; w++ {
			wr, err := cluster.Step(map[string]int{"/read": 100}, 60)
			if err != nil {
				t.Fatal(err)
			}
			total += wr.NumRequests()
		}
		return total
	}
	base := count("") // healthy cluster
	if base != 1000 {
		t.Fatalf("baseline requests = %d", base)
	}
	dropped := count("seed=2;dropspans:factor=0.3")
	if dropped >= base || dropped < 600 || dropped > 800 {
		t.Fatalf("dropped-span run delivered %d of %d requests, want ≈700", dropped, base)
	}
	duplicated := count("seed=2;dupspans:factor=0.3")
	if duplicated <= base || duplicated < 1200 || duplicated > 1400 {
		t.Fatalf("duplicated-span run delivered %d of %d requests, want ≈1300", duplicated, base)
	}
}

func TestClockSkewDelaysTraces(t *testing.T) {
	sched, err := faults.Compile("clockskew:skew=2,from=1,to=2")
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(app.Toy(), 3)
	if err != nil {
		t.Fatal(err)
	}
	cluster.SetFaults(sched)
	var perWindow []int
	var usage []float64
	for w := 0; w < 5; w++ {
		wr, err := cluster.Step(map[string]int{"/read": 50}, 60)
		if err != nil {
			t.Fatal(err)
		}
		perWindow = append(perWindow, wr.NumRequests())
		usage = append(usage, wr.Usage[app.Pair{Component: "DB", Resource: app.CPU}])
	}
	want := []int{50, 0, 50, 100, 50}
	if !reflect.DeepEqual(perWindow, want) {
		t.Fatalf("skewed trace delivery = %v, want %v", perWindow, want)
	}
	// Metrics are not skewed: the resources were consumed in window 1.
	for w, v := range usage {
		if v <= 0 {
			t.Fatalf("window %d: usage %v despite skew being trace-only", w, v)
		}
	}
	var total int
	for _, n := range perWindow {
		total += n
	}
	if total != 250 {
		t.Fatalf("skew lost requests: %d", total)
	}
}

// TestHealthyClusterUnchangedByNilSchedule guards the zero-cost property:
// arming no faults must leave the simulator's output bit-identical to the
// pre-fault-subsystem behaviour (same rng consumption, same telemetry).
func TestHealthyClusterUnchangedByNilSchedule(t *testing.T) {
	run := func(s *faults.Schedule) *Run {
		cluster, err := NewCluster(app.Toy(), 21)
		if err != nil {
			t.Fatal(err)
		}
		cluster.SetFaults(s)
		p := workload.Uniform(1, workload.DaySpec{
			Shape: workload.TwoPeak{}, Mix: workload.Mix{"/read": 1}, PeakRPS: 20,
		})
		p.WindowsPerDay = 24
		p.WindowSeconds = 60
		p.Seed = 21
		r, err := cluster.Run(p.Generate())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if Fingerprint(run(nil)) != Fingerprint(run(nil)) {
		t.Fatal("healthy cluster not deterministic")
	}
}
