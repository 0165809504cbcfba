package fleet

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
)

// Concurrency wall: these tests exist to run under -race (make check runs
// the whole suite with -race). They drive every cross-tenant interaction
// the fleet serializes — shared metrics registry, shared span ring, shared
// training pool, tenant table churn — from many goroutines at once.

// TestFleetConcurrentStress hammers three tenants with concurrent ingest,
// estimates, retrain-and-swap, and fleet status reads, while a fourth
// tenant is repeatedly created and retired. Nothing here asserts outputs
// beyond status codes; the assertion is the race detector staying quiet
// across every shared structure.
func TestFleetConcurrentStress(t *testing.T) {
	opts := quickOpts()
	opts.Metrics = obs.NewRegistry()
	opts.Tracer = obs.NewSpanTracer(256, 1)
	fl, h := newToyFleet(t, Config{Opts: opts}, "a", "b", "c")

	const perWorker = 6
	var wg sync.WaitGroup
	fail := make(chan string, 64)
	report := func(format string, args ...interface{}) {
		select {
		case fail <- fmt.Sprintf(format, args...):
		default:
		}
	}
	for i, id := range []string{"a", "b", "c"} {
		id, seed := id, int64(100+i)
		// Ingest: grows the tenant's ring while everything else reads it.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < perWorker; n++ {
				if rec := do(t, h, "POST", "/v1/t/"+id+"/v1/telemetry", toyBody(t, 1, 30, seed)); rec.Code != http.StatusOK {
					report("ingest %s = %d", id, rec.Code)
				}
			}
		}()
		// Estimate: serves from whatever generation is active mid-swap.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < perWorker; n++ {
				if rec := do(t, h, "POST", "/v1/t/"+id+"/v1/estimate", toyEstimate(t)); rec.Code != http.StatusOK {
					report("estimate %s = %d: %s", id, rec.Code, rec.Body)
				}
			}
		}()
		// Swap: publishes new generations (409 when two learns collide on
		// the same tenant is the documented contract, not a failure).
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 3; n++ {
				rec := do(t, h, "POST", "/v1/t/"+id+"/v1/learn", bytes.NewBufferString(`{"pairs":["Service/cpu"]}`))
				if rec.Code != http.StatusOK && rec.Code != http.StatusConflict {
					report("learn %s = %d: %s", id, rec.Code, rec.Body)
				}
			}
		}()
	}
	// Lifecycle churn against the same table the routers read.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; n < 4; n++ {
			if _, err := fl.Create(TenantSpec{App: "churn"}); err != nil {
				report("churn create: %v", err)
				return
			}
			do(t, h, "POST", "/v1/t/churn/v1/telemetry", toyBody(t, 1, 30, 200))
			if err := fl.Retire("churn"); err != nil {
				report("churn retire: %v", err)
				return
			}
		}
	}()
	// Status and metrics readers cross every tenant's state.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; n < 10; n++ {
			do(t, h, "GET", "/v1/fleet", nil)
			do(t, h, "GET", "/metrics", nil)
		}
	}()
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Error(msg)
	}
}

// TestSchedulerFairRotation pins the round-robin guarantee without clocks:
// three tenants all permanently due, a one-slot queue, many sweeps — every
// tenant must win an equal share of the contested slots. A fixed starting
// offset (the bug this test exists to catch) would hand every slot to the
// same tenant.
func TestSchedulerFairRotation(t *testing.T) {
	fl, _ := newToyFleet(t, Config{Pipeline: pipeline.Config{Interval: time.Minute, DriftEvery: time.Hour}}, "a", "b", "c")
	s := &scheduler{f: fl, jobs: make(chan schedJob, 1)}
	base := time.Unix(0, 0)
	s.sweepOnce(base) // first sighting: deadlines initialised, nothing due

	counts := map[string]int{}
	now := base
	const sweeps = 300
	for i := 0; i < sweeps; i++ {
		now = now.Add(2 * time.Minute)
		s.sweepOnce(now)
		for {
			select {
			case j := <-s.jobs:
				counts[j.t.ID]++
				j.t.trainPending.Store(false)
				continue
			default:
			}
			break
		}
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != sweeps {
		t.Fatalf("queued %d jobs over %d sweeps, want one per sweep (%v)", total, sweeps, counts)
	}
	for _, id := range []string{"a", "b", "c"} {
		if counts[id] < sweeps/3-10 || counts[id] > sweeps/3+10 {
			t.Errorf("tenant %s won %d of %d contested slots; rotation is unfair: %v",
				id, counts[id], sweeps, counts)
		}
	}
}

// TestSchedulerClaim: a tenant whose tick is already queued or running is
// never enqueued twice, however many sweeps pass.
func TestSchedulerClaim(t *testing.T) {
	fl, _ := newToyFleet(t, Config{Pipeline: pipeline.Config{Interval: time.Minute, DriftEvery: time.Hour}}, "a")
	s := &scheduler{f: fl, jobs: make(chan schedJob, 8)}
	base := time.Unix(0, 0)
	s.sweepOnce(base)
	for i := 1; i <= 5; i++ {
		s.sweepOnce(base.Add(time.Duration(i) * 2 * time.Minute))
	}
	if got := len(s.jobs); got != 1 {
		t.Fatalf("queued jobs = %d, want 1 (claim must hold across sweeps)", got)
	}
}

// TestFleetFairnessUnderFlood is the starvation wall: one tenant floods
// telemetry far past its ingest budget while a quiet tenant trickles. The
// flood must be shed with 429 + Retry-After (counted in the flooding
// tenant's shed metric), and the quiet tenant must notice nothing: every
// request admitted, its scheduled retrains still firing, its estimate tail
// latency bounded.
func TestFleetFairnessUnderFlood(t *testing.T) {
	opts := quickOpts()
	opts.Metrics = obs.NewRegistry()
	pcfg := pipeline.DefaultConfig()
	pcfg.Interval = 60 * time.Millisecond
	pcfg.DriftEvery = time.Hour // isolate the scheduled-retrain cadence
	fl, h := newToyFleet(t, Config{
		Opts:         opts,
		Pipeline:     pcfg,
		TrainWorkers: 2,
		IngestRate:   10,
		IngestBurst:  4,
	}, "flood", "quiet")
	quietBefore := quietVersion(fl, t)
	fl.StartScheduler()

	var floodShed, floodOK atomic.Int64
	var retryAfterSeen atomic.Bool
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rec := do(t, h, "POST", "/v1/t/flood/v1/telemetry", toyBody(t, 1, 30, int64(300+i)))
			switch rec.Code {
			case http.StatusTooManyRequests:
				floodShed.Add(1)
				if rec.Header().Get("Retry-After") != "" {
					retryAfterSeen.Store(true)
				}
			case http.StatusOK:
				floodOK.Add(1)
			}
		}
	}()

	// The quiet tenant trickles: a few ingests and steady estimates, all of
	// which must be admitted while the flood rages.
	var latencies []time.Duration
	deadline := time.Now().Add(900 * time.Millisecond)
	i := 0
	for time.Now().Before(deadline) {
		if i%8 == 0 {
			if rec := do(t, h, "POST", "/v1/t/quiet/v1/telemetry", toyBody(t, 1, 30, int64(400+i))); rec.Code != http.StatusOK {
				t.Errorf("quiet ingest shed: %d", rec.Code)
			}
		}
		start := time.Now()
		rec := do(t, h, "POST", "/v1/t/quiet/v1/estimate", toyEstimate(t))
		latencies = append(latencies, time.Since(start))
		if rec.Code != http.StatusOK {
			t.Errorf("quiet estimate = %d: %s", rec.Code, rec.Body)
		}
		i++
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if floodShed.Load() == 0 {
		t.Fatalf("flood was never shed (ok=%d)", floodOK.Load())
	}
	if !retryAfterSeen.Load() {
		t.Error("429 responses carried no Retry-After")
	}
	if ft, _ := fl.Get("flood"); ft.Server().ShedCount() == 0 {
		t.Error("flooding tenant's shed counter is zero")
	}
	if qt, _ := fl.Get("quiet"); qt.Server().ShedCount() != 0 {
		t.Errorf("quiet tenant was shed %d times", qt.Server().ShedCount())
	}

	// The quiet tenant's retrain cadence survived the flood: the shared
	// scheduler kept serving it new generations.
	waitFor(t, 5*time.Second, func() bool { return quietVersion(fl, t) > quietBefore })

	// Tail latency bound: generous (CI machines are noisy) but finite —
	// starvation shows up as multi-second stalls, not milliseconds.
	sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
	if p99 := latencies[len(latencies)*99/100]; p99 > 2*time.Second {
		t.Errorf("quiet tenant estimate p99 = %v under flood", p99)
	}

	// The shed shows up per-tenant in the shared exposition.
	rec := do(t, h, "GET", "/metrics", nil)
	if !bytes.Contains(rec.Body.Bytes(), []byte(`deeprest_http_shed_total{app="flood",reason="ingest_rate"}`)) {
		t.Error("metrics carry no per-tenant shed series for the flooding tenant")
	}
}

func quietVersion(fl *Fleet, t *testing.T) int {
	t.Helper()
	qt, ok := fl.Get("quiet")
	if !ok {
		t.Fatal("quiet tenant missing")
	}
	return qt.Server().Pipeline().Status().ActiveVersion
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("condition not reached before timeout")
}

// TestSchedulerUsesPipelineCadence: the scheduler has no cadence of its own.
// A tenant whose pipeline.Config left DriftEvery zero is drift-ticked at the
// Interval/4 its pipeline resolved, and retrained at Interval.
func TestSchedulerUsesPipelineCadence(t *testing.T) {
	fl, _ := newToyFleet(t, Config{Pipeline: pipeline.Config{Interval: 40 * time.Second}}, "a")
	tn, _ := fl.Get("a")
	if got := tn.Server().Pipeline().DriftEvery(); got != 10*time.Second {
		t.Fatalf("resolved DriftEvery = %v, want Interval/4 = 10s", got)
	}
	s := &scheduler{f: fl, jobs: make(chan schedJob, 1)}
	base := time.Unix(0, 0)
	if next := s.sweepOnce(base); next != 5*time.Second {
		t.Errorf("sweep period = %v, want half the drift cadence (5s)", next)
	}
	// One sweep a second: the kinds of the ticks enqueued, by second.
	got := map[int]string{}
	for sec := 1; sec <= 40; sec++ {
		s.sweepOnce(base.Add(time.Duration(sec) * time.Second))
		select {
		case j := <-s.jobs:
			got[sec] = j.kind
			j.t.trainPending.Store(false)
		default:
		}
	}
	want := map[int]string{10: "drift", 20: "drift", 30: "drift", 40: "scheduled"}
	if len(got) != len(want) {
		t.Fatalf("ticks by second = %v, want %v", got, want)
	}
	for sec, kind := range want {
		if got[sec] != kind {
			t.Fatalf("ticks by second = %v, want %v", got, want)
		}
	}
}

// TestFleetSchedulerEndToEnd: the live scheduler (real goroutines, real
// ticker) retrains every tenant of a small fleet within a few cadences and
// stops cleanly.
func TestFleetSchedulerEndToEnd(t *testing.T) {
	pcfg := pipeline.DefaultConfig()
	pcfg.Interval = 50 * time.Millisecond
	pcfg.DriftEvery = time.Hour
	fl, h := newToyFleet(t, Config{Pipeline: pcfg, TrainWorkers: 2}, "a", "b", "c")
	before := map[string]int{}
	for _, tn := range fl.Tenants() {
		before[tn.ID] = tn.Server().Pipeline().Status().ActiveVersion
	}
	// Fresh windows so scheduled retrains have something to train on.
	for i, id := range []string{"a", "b", "c"} {
		if rec := do(t, h, "POST", "/v1/t/"+id+"/v1/telemetry", toyBody(t, 1, 35, int64(500+i))); rec.Code != http.StatusOK {
			t.Fatalf("ingest = %d", rec.Code)
		}
	}
	fl.StartScheduler()
	if !fl.SchedulerRunning() {
		t.Fatal("scheduler not running after start")
	}
	waitFor(t, 10*time.Second, func() bool {
		for _, tn := range fl.Tenants() {
			if tn.Server().Pipeline().Status().ActiveVersion <= before[tn.ID] {
				return false
			}
		}
		return true
	})
	fl.Close()
	if fl.SchedulerRunning() {
		t.Fatal("scheduler still running after close")
	}
}

// SchedulerRunning reports whether the shared scheduler is live.
func (f *Fleet) SchedulerRunning() bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.sched != nil
}
