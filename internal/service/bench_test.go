package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/testutil"
	"repro/internal/topo"
	"repro/internal/workload"
)

// nopRW discards the response; the benchmark measures the middleware, not
// httptest's recorder bookkeeping.
type nopRW struct{ h http.Header }

func (w nopRW) Header() http.Header         { return w.h }
func (w nopRW) Write(b []byte) (int, error) { return len(b), nil }
func (w nopRW) WriteHeader(int)             {}

// benchHandler wraps a no-op inner handler in the observability middleware,
// so the measured time is purely the per-request instrumentation cost. The
// budget is <1µs/request on top of routing (see ISSUE/DESIGN).
func benchHandler(b *testing.B, instrumented bool) http.Handler {
	b.Helper()
	opts := quickServiceOpts()
	if instrumented {
		opts.Metrics = obs.NewRegistry()
	}
	s, err := NewWithConfig(opts, pipeline.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	return s.withObservability(inner)
}

func benchMiddleware(b *testing.B, instrumented bool) {
	h := benchHandler(b, instrumented)
	req := httptest.NewRequest("GET", "/v1/status", nil)
	w := nopRW{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
	}
}

// BenchmarkHandlerBaseline measures the bare inner handler: subtract it from
// the middleware numbers to read the per-request instrumentation overhead.
func BenchmarkHandlerBaseline(b *testing.B) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	req := httptest.NewRequest("GET", "/v1/status", nil)
	w := nopRW{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inner.ServeHTTP(w, req)
	}
}

func BenchmarkMiddlewareUninstrumented(b *testing.B) { benchMiddleware(b, false) }
func BenchmarkMiddlewareInstrumented(b *testing.B)   { benchMiddleware(b, true) }

// benchLearnedService trains one quick generation so estimate benchmarks
// run against a live model.
func benchLearnedService(b *testing.B) http.Handler {
	b.Helper()
	s, err := NewWithConfig(quickServiceOpts(), pipeline.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	_, _, run := testutil.ToyTelemetry(b, 1, 30, 91)
	store := telemetry.NewServer(run.WindowSeconds)
	store.RecordRun(run)
	var buf bytes.Buffer
	if err := store.ExportJSON(&buf); err != nil {
		b.Fatal(err)
	}
	post := func(path string, body *bytes.Buffer) {
		req := httptest.NewRequest("POST", path, body)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("%s = %d: %s", path, rec.Code, rec.Body)
		}
	}
	post("/v1/telemetry", &buf)
	post("/v1/learn", bytes.NewBufferString(`{}`))
	return h
}

// BenchmarkEstimateWarm repeats one identical /v1/estimate: after the first
// iteration every request is a prediction-cache hit, skipping trace
// synthesis, feature extraction, and inference entirely.
func BenchmarkEstimateWarm(b *testing.B) {
	h := benchLearnedService(b)
	body := []byte(`{"windows":[{"/read":10},{"/read":25},{"/read":40}]}`)
	w := nopRW{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/estimate", bytes.NewReader(body))
		h.ServeHTTP(w, req)
	}
}

// BenchmarkEstimateConcurrent hammers /v1/estimate from 64 concurrent
// clients, every request a distinct body (never a cache hit), so the
// measured path is decode → estimate table → one engine pass per request,
// all fanning over the shared worker pool. Besides ns/op it reports the
// client-observed p99 latency.
func BenchmarkEstimateConcurrent(b *testing.B) {
	h := benchLearnedService(b)
	const clients = 64
	var seq atomic.Uint64
	lats := make([][]time.Duration, clients)
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	assigned := 0
	per := (b.N + clients - 1) / clients
	for c := 0; c < clients && assigned < b.N; c++ {
		n := per
		if assigned+n > b.N {
			n = b.N - assigned
		}
		assigned += n
		wg.Add(1)
		go func(c, n int) {
			defer wg.Done()
			w := nopRW{h: make(http.Header)}
			ls := make([]time.Duration, 0, n)
			for i := 0; i < n; i++ {
				id := seq.Add(1)
				body := []byte(`{"windows":[{"/read":` + itoa(int(id%1000000)) + `},{"/read":25}]}`)
				req := httptest.NewRequest("POST", "/v1/estimate", bytes.NewReader(body))
				start := time.Now()
				h.ServeHTTP(w, req)
				ls = append(ls, time.Since(start))
			}
			lats[c] = ls
		}(c, n)
	}
	wg.Wait()
	b.StopTimer()
	var all []time.Duration
	for _, ls := range lats {
		all = append(all, ls...)
	}
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		idx := len(all) * 99 / 100
		if idx >= len(all) {
			idx = len(all) - 1
		}
		b.ReportMetric(float64(all[idx].Nanoseconds()), "p99-ns")
	}
}

// BenchmarkEstimateCold sends a distinct request every iteration, so each
// one pays the full synthesize→extract→predict path — the pre-cache cost
// of every estimate.
func BenchmarkEstimateCold(b *testing.B) {
	h := benchLearnedService(b)
	w := nopRW{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := []byte(`{"windows":[{"/read":` + itoa(10+i%1000000) + `},{"/read":25}]}`)
		req := httptest.NewRequest("POST", "/v1/estimate", bytes.NewReader(body))
		h.ServeHTTP(w, req)
	}
}

// socialHitFixture is the shape the repo benchmark's hot reads have: a
// service over the social-network topology with every pair learned (a quick
// model — a hit never touches it) and one canonical 12-window day as the
// request body, already estimated once so the next read is a warm hit.
func socialHitFixture(tb testing.TB, opts core.Options) (*Server, []byte) {
	tb.Helper()
	s, err := NewWithConfig(opts, pipeline.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	spec, mix, err := topo.Resolve("social")
	if err != nil {
		tb.Fatal(err)
	}
	day := workload.Uniform(1, workload.DaySpec{Shape: workload.TwoPeak{}, Mix: mix, PeakRPS: 60})
	day.WindowsPerDay, day.WindowSeconds = 48, 60
	_, _, run, err := sim.Simulate(spec, day, 1, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Bootstrap(run); err != nil {
		tb.Fatal(err)
	}
	if _, err := s.Pipeline().TrainOnce(0, 0, nil, "manual"); err != nil {
		tb.Fatal(err)
	}
	day.WindowsPerDay, day.Seed = 12, 2
	body, err := json.Marshal(estimateRequest{Windows: day.Generate().Windows, WindowsPerDay: 12})
	if err != nil {
		tb.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/estimate", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("priming estimate = %d: %s", rec.Code, rec.Body)
	}
	return s, body
}

// BenchmarkEstimateHitSocial is a warm hit at the social tenant's shape —
// a ~2 KB 12-window body, a ~50 KB response — through the whole handler
// stack: what 98 % of the mixed-fleet workload's reads pay. metrics=off is
// the same read with no registry, so the difference bounds what the
// middleware's and the hit stages' observations cost together.
func BenchmarkEstimateHitSocial(b *testing.B) {
	for _, metrics := range []string{"on", "off"} {
		b.Run("metrics="+metrics, func(b *testing.B) {
			opts := quickServiceOpts()
			if metrics == "on" {
				opts.Metrics = obs.NewRegistry()
			}
			s, body := socialHitFixture(b, opts)
			h := s.Handler()
			w := nopRW{h: make(http.Header)}
			rd := bytes.NewReader(body)
			req := httptest.NewRequest("POST", "/v1/estimate", rd)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Reset(body)
				h.ServeHTTP(w, req)
			}
			b.StopTimer()
			if w.h.Get("X-DeepRest-Cache") != "hit" {
				b.Fatal("the measured reads were not cache hits")
			}
		})
	}
}

// BenchmarkEstimateMissGen150 is a miss at the repo benchmark's miss-gen150
// shape through the whole handler: a service over the generated
// 150-component topology (399 experts, hidden 16, one phase-A epoch) and a
// distinct 6-window read every iteration, so each one decodes, synthesizes,
// predicts and encodes a ~140 KB response.
func BenchmarkEstimateMissGen150(b *testing.B) {
	opts := quickServiceOpts()
	opts.Estimator.Hidden, opts.Estimator.Epochs = 16, 1
	opts.Estimator.AttentionEpochs = core.DefaultOptions().Estimator.AttentionEpochs
	s, err := NewWithConfig(opts, pipeline.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	spec, mix, err := topo.Resolve("gen:seed=7,components=150")
	if err != nil {
		b.Fatal(err)
	}
	day := workload.Uniform(1, workload.DaySpec{Shape: workload.TwoPeak{}, Mix: mix, PeakRPS: 60})
	day.WindowsPerDay, day.WindowSeconds = 24, 60
	_, _, run, err := sim.Simulate(spec, day, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Bootstrap(run); err != nil {
		b.Fatal(err)
	}
	if _, err := s.Pipeline().TrainOnce(0, 0, nil, "manual"); err != nil {
		b.Fatal(err)
	}
	day.WindowsPerDay, day.Seed = 6, 2
	windows := day.Generate().Windows
	apis := make([]string, 0, len(windows[0]))
	for api := range windows[0] {
		apis = append(apis, api)
	}
	sort.Strings(apis)
	read := func(i int) *http.Request {
		windows[0][apis[0]] = i // every body distinct: every read a miss
		body, err := json.Marshal(estimateRequest{Windows: windows, WindowsPerDay: 6})
		if err != nil {
			b.Fatal(err)
		}
		return httptest.NewRequest("POST", "/v1/estimate", bytes.NewReader(body))
	}
	h := s.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, read(0))
	if rec.Code != http.StatusOK {
		b.Fatalf("first read = %d: %s", rec.Code, rec.Body)
	}
	w := nopRW{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, read(i+1))
	}
	b.StopTimer()
	if w.h.Get("X-DeepRest-Cache") == "hit" {
		b.Fatal("a measured read was a cache hit")
	}
}
