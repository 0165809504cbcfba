package service

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/nn/ad"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// instrumentedService builds a quick service wired to a fresh metrics
// registry and a JSON access log captured in logBuf.
func instrumentedService(t *testing.T, pcfg pipeline.Config, cfg Config) (*Server, *obs.Registry, *bytes.Buffer) {
	t.Helper()
	reg := obs.NewRegistry()
	logBuf := &bytes.Buffer{}
	opts := quickServiceOpts()
	opts.Metrics = reg
	opts.Logger = slog.New(slog.NewJSONHandler(logBuf, nil))
	s, err := New(opts, pcfg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, reg, logBuf
}

// gateFirstTrain makes the first training run close enter and then block
// until release is closed, so a test can hold a request in flight.
func gateFirstTrain(pcfg *pipeline.Config) (enter, release chan struct{}) {
	enter, release = make(chan struct{}), make(chan struct{})
	var gate sync.Once
	pcfg.BeforeTrain = func() {
		gate.Do(func() {
			close(enter)
			<-release
		})
	}
	return enter, release
}

// telemetrySeries are the store's six series.
var telemetrySeries = []string{
	"deeprest_telemetry_windows_total",
	"deeprest_telemetry_spans_total",
	"deeprest_telemetry_requests_total",
	"deeprest_telemetry_evicted_total",
	"deeprest_telemetry_resident_windows",
	"deeprest_telemetry_feature_extractions_total",
}

// TestMetricsScrape drives the service through ingest + learn and validates
// the full /metrics exposition against the Prometheus text-format grammar,
// then checks the promised series are all present.
func TestMetricsScrape(t *testing.T) {
	s, _, _ := instrumentedService(t, pipeline.DefaultConfig(), Config{})
	h := s.Handler()

	// The store is instrumented when the tenant is built: its series scrape
	// as 0 before the first push instead of appearing with it.
	fresh := do(t, h, "GET", "/metrics", nil).Body.String()
	if err := obs.Lint(strings.NewReader(fresh)); err != nil {
		t.Fatalf("fresh exposition fails Prometheus grammar: %v\n%s", err, fresh)
	}
	for _, name := range telemetrySeries {
		if !strings.Contains(fresh, "\n"+name+" 0\n") {
			t.Errorf("fresh scrape does not carry %s at 0", name)
		}
	}

	if rec := do(t, h, "POST", "/v1/telemetry", telemetryBody(t, 1, 30, 61)); rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d", rec.Code)
	}
	if rec := do(t, h, "POST", "/v1/learn", bytes.NewBufferString(`{"pairs":["Service/cpu"]}`)); rec.Code != http.StatusOK {
		t.Fatalf("learn = %d: %s", rec.Code, rec.Body)
	}
	// A request that routes nowhere must fold into the "other" endpoint
	// label instead of minting a new one.
	do(t, h, "GET", "/no/such/route", nil)
	// Touch the quality scoreboard so its gauges export scored values.
	if rec := do(t, h, "GET", "/v1/quality", nil); rec.Code != http.StatusOK {
		t.Fatalf("quality = %d", rec.Code)
	}

	rec := do(t, h, "GET", "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("content type = %q, want %q", ct, obs.ContentType)
	}
	body := rec.Body.String()
	if err := obs.Lint(strings.NewReader(body)); err != nil {
		t.Fatalf("exposition fails Prometheus grammar: %v\n%s", err, body)
	}
	for _, want := range []string{
		`deeprest_http_request_duration_seconds_bucket{endpoint="/v1/learn",le="+Inf"}`,
		`deeprest_http_requests_total{endpoint="/v1/telemetry",code="200"}`,
		`deeprest_http_requests_total{endpoint="other",code="404"}`,
		"deeprest_http_in_flight_requests 1", // the scrape itself is in flight
		`deeprest_train_epochs_total{phase="train"}`,
		"deeprest_train_epoch_loss{",
		// One expert: phase B (peer_states, attention) has nothing to run.
		`deeprest_train_phase_seconds_count{phase="trunks"} 1`,
		`deeprest_train_phase_seconds_count{phase="compile"} 1`,
		`deeprest_pipeline_generation_seconds_count{trigger="manual"} 1`,
		`deeprest_pipeline_generations_total{trigger="manual",result="ok"} 1`,
		"deeprest_quality_regressed 0",
		`deeprest_quality_unknown_path_frac{horizon="24h"} 0`,
		"deeprest_active_generation 1",
		"deeprest_telemetry_windows_total",
		"deeprest_telemetry_spans_total",
		`deeprest_build_info{version=`,
		`deeprest_kernel_info{impl="` + ad.KernelImpl() + `",gates="` + ad.GateImpl() + `"} 1`,
		"deeprest_quality_windows_scored_total",
		`deeprest_quality_smape{component="Service",resource="cpu"}`,
		"deeprest_quality_coverage{",
		"deeprest_infer_compile_failures_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape is missing %q", want)
		}
	}
}

// TestRequestIDs: every response carries an X-Request-ID, ids are unique,
// an inbound id is propagated, and the access log links ids to statuses.
func TestRequestIDs(t *testing.T) {
	s, _, logBuf := instrumentedService(t, pipeline.DefaultConfig(), Config{})
	h := s.Handler()

	r1 := do(t, h, "GET", "/v1/status", nil)
	r2 := do(t, h, "GET", "/v1/status", nil)
	id1, id2 := r1.Header().Get("X-Request-ID"), r2.Header().Get("X-Request-ID")
	if id1 == "" || id2 == "" {
		t.Fatalf("missing X-Request-ID: %q, %q", id1, id2)
	}
	if id1 == id2 {
		t.Fatalf("request ids collide: %q", id1)
	}

	// An id supplied by the caller (e.g. an upstream proxy) is kept.
	req := httptest.NewRequest("GET", "/v1/status", nil)
	req.Header.Set("X-Request-ID", "upstream-42")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-ID"); got != "upstream-42" {
		t.Fatalf("inbound id not propagated: %q", got)
	}

	// Each request produced one structured access-log line carrying the id,
	// method, path, and status.
	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("access log has %d lines, want 3:\n%s", len(lines), logBuf)
	}
	byID := map[string]map[string]interface{}{}
	for _, line := range lines {
		var entry map[string]interface{}
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("access log line is not JSON: %s", line)
		}
		byID[entry["request_id"].(string)] = entry
	}
	for _, id := range []string{id1, id2, "upstream-42"} {
		e, ok := byID[id]
		if !ok {
			t.Fatalf("no access-log line for request %q", id)
		}
		if e["method"] != "GET" || e["path"] != "/v1/status" || e["status"] != float64(200) {
			t.Errorf("access log for %q = %v", id, e)
		}
	}
}

// TestMiddlewareRecordsStatuses covers the metric paths for success, client
// error, and the 409 returned to a learn racing an in-flight generation.
func TestMiddlewareRecordsStatuses(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	enter, release := gateFirstTrain(&cfg)
	s, reg, _ := instrumentedService(t, cfg, Config{})
	h := s.Handler()

	if rec := do(t, h, "POST", "/v1/telemetry", telemetryBody(t, 1, 30, 62)); rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d", rec.Code)
	}
	// 400: malformed learn body.
	if rec := do(t, h, "POST", "/v1/learn", bytes.NewBufferString(`{"pairs":`)); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad learn = %d", rec.Code)
	}
	// 409: second learn while the first holds the training slot.
	firstDone := make(chan int, 1)
	go func() {
		rec := do(t, h, "POST", "/v1/learn", bytes.NewBufferString(`{"pairs":["Service/cpu"]}`))
		firstDone <- rec.Code
	}()
	<-enter
	if rec := do(t, h, "POST", "/v1/learn", nil); rec.Code != http.StatusConflict {
		t.Fatalf("concurrent learn = %d", rec.Code)
	}
	close(release)
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("first learn = %d", code)
	}

	reqs := reg.CounterVec("deeprest_http_requests_total",
		"HTTP requests served, by endpoint pattern and status code.",
		"endpoint", "code")
	for _, tc := range []struct {
		code string
		want uint64
	}{{"200", 1}, {"400", 1}, {"409", 1}} {
		if got := reqs.With("/v1/learn", tc.code).Value(); got != tc.want {
			t.Errorf("requests_total{/v1/learn,%s} = %d, want %d", tc.code, got, tc.want)
		}
	}
	dur := reg.HistogramVec("deeprest_http_request_duration_seconds",
		"HTTP request latency by endpoint pattern.",
		obs.DefBuckets, "endpoint")
	if got := dur.With("/v1/learn").Count(); got != 3 {
		t.Errorf("latency observations for /v1/learn = %d, want 3", got)
	}
	if got := dur.With("/v1/learn").Sum(); got <= 0 {
		t.Errorf("latency sum = %v, want > 0", got)
	}
}

// TestAdmissionSharedAcrossHandlerCalls: the in-flight bound belongs to the
// server, not to a Handler() value — two handlers of one server (the fleet
// router and the bench trace both take one) share the single slot.
func TestAdmissionSharedAcrossHandlerCalls(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	enter, release := gateFirstTrain(&cfg)
	s, err := New(quickServiceOpts(), cfg, Config{MaxInflight: 1})
	if err != nil {
		t.Fatal(err)
	}
	h1, h2 := s.Handler(), s.Handler()
	if rec := do(t, h1, "POST", "/v1/telemetry", telemetryBody(t, 1, 30, 65)); rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d", rec.Code)
	}
	learnDone := make(chan int, 1)
	go func() {
		learnDone <- do(t, h1, "POST", "/v1/learn", bytes.NewBufferString(`{"pairs":["Service/cpu"]}`)).Code
	}()
	<-enter // h1 holds the server's only slot
	if rec := do(t, h2, "GET", "/v1/status", nil); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("second handler admitted a request past the bound: %d, want 503", rec.Code)
	}
	close(release)
	if code := <-learnDone; code != http.StatusOK {
		t.Fatalf("held learn = %d", code)
	}
}

// TestShedsAreCountedLikeAnyResponse: both admission refusals pass through
// the observability middleware — they land in requests_total under their
// endpoint and status, in the access log, and in shed_total under their
// reason. /v1/autoscale/plan has an endpoint label of its own.
func TestShedsAreCountedLikeAnyResponse(t *testing.T) {
	pcfg := pipeline.DefaultConfig()
	enter, release := gateFirstTrain(&pcfg)
	// One token, refilled far slower than the test runs: the second push is
	// refused.
	s, _, logBuf := instrumentedService(t, pcfg, Config{MaxInflight: 1, IngestRate: 1e-3, IngestBurst: 1})
	h := s.Handler()
	if rec := do(t, h, "POST", "/v1/telemetry", telemetryBody(t, 1, 30, 66)); rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d", rec.Code)
	}
	rec := do(t, h, "POST", "/v1/telemetry", telemetryBody(t, 1, 30, 67))
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("push past the bucket = %d (Retry-After %q), want 429 with Retry-After",
			rec.Code, rec.Header().Get("Retry-After"))
	}
	learnDone := make(chan int, 1)
	go func() {
		learnDone <- do(t, h, "POST", "/v1/learn", bytes.NewBufferString(`{"pairs":["Service/cpu"]}`)).Code
	}()
	<-enter
	if rec := do(t, h, "GET", "/v1/autoscale/plan", nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("request over capacity = %d, want 503", rec.Code)
	}
	close(release)
	if code := <-learnDone; code != http.StatusOK {
		t.Fatalf("held learn = %d", code)
	}
	if got := s.ShedCount(); got != 2 {
		t.Errorf("ShedCount = %d, want 2", got)
	}

	body := do(t, h, "GET", "/metrics", nil).Body.String()
	if err := obs.Lint(strings.NewReader(body)); err != nil {
		t.Fatalf("exposition fails Prometheus grammar: %v", err)
	}
	for _, want := range []string{
		`deeprest_http_shed_total{reason="ingest_rate"} 1`,
		`deeprest_http_shed_total{reason="inflight"} 1`,
		`deeprest_http_requests_total{endpoint="/v1/telemetry",code="429"} 1`,
		`deeprest_http_requests_total{endpoint="/v1/autoscale/plan",code="503"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape is missing %q", want)
		}
	}
	if !strings.Contains(logBuf.String(), `"status":429`) || !strings.Contains(logBuf.String(), `"status":503`) {
		t.Errorf("access log carries no line for the shed requests:\n%s", logBuf)
	}
}

// TestConfigRejectsNegativeSettings: the settings are validated once, at
// construction.
func TestConfigRejectsNegativeSettings(t *testing.T) {
	for _, cfg := range []Config{
		{MaxInflight: -1}, {IngestRate: -1}, {IngestBurst: -1}, {RequestTimeout: -1},
		{Retention: -1}, {QualityHorizon: -1}, {QualityThreshold: -1},
		{IngestRate: math.NaN()}, {QualityThreshold: math.Inf(1)},
	} {
		if _, err := New(quickServiceOpts(), pipeline.DefaultConfig(), cfg); err == nil {
			t.Errorf("New accepted %+v", cfg)
		}
	}
}

// TestUninstrumentedServiceServes: nil Metrics and Logger must not change
// behaviour — no /metrics route, no panics, ids still assigned.
func TestUninstrumentedServiceServes(t *testing.T) {
	s, err := NewWithConfig(quickServiceOpts(), pipeline.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	rec := do(t, h, "GET", "/v1/status", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if rec.Header().Get("X-Request-ID") == "" {
		t.Fatal("request id missing without instrumentation")
	}
	if rec := do(t, h, "GET", "/metrics", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("metrics without registry = %d, want 404", rec.Code)
	}
}

// TestRetryAfterIsTheWaitRoundedUp: a refused push says how many whole
// seconds remain until a token accrues, rounded up once — driven at fixed
// instants through take, then through the handler at rates 1 and 0.5 with a
// drained one-token bucket (a token 1 s and 2 s away).
func TestRetryAfterIsTheWaitRoundedUp(t *testing.T) {
	t0 := time.Unix(1000, 0)
	for _, c := range []struct {
		rate  float64
		steps []time.Duration // offsets from t0; the first take spends the token
		want  []int           // Retry-After of each later take, 0 = admitted
	}{
		{1, []time.Duration{0, 0, 250 * time.Millisecond, time.Second}, []int{1, 1, 0}},
		{0.5, []time.Duration{0, 0, 500 * time.Millisecond, time.Second, 2 * time.Second}, []int{2, 2, 1, 0}},
		{4, []time.Duration{0, 0, 100 * time.Millisecond, 300 * time.Millisecond}, []int{1, 1, 0}},
	} {
		b := newTokenBucket(c.rate, 1)
		for i, at := range c.steps {
			ok, secs := b.take(t0.Add(at))
			want := 0
			if i > 0 {
				want = c.want[i-1]
			}
			if ok != (want == 0) || secs != want {
				t.Errorf("rate %v, take at +%v: admitted %v, Retry-After %d; want %d", c.rate, at, ok, secs, want)
			}
		}
	}
	for _, c := range []struct {
		rate float64
		want string
	}{{1, "1"}, {0.5, "2"}} {
		s, err := New(quickServiceOpts(), pipeline.DefaultConfig(), Config{IngestRate: c.rate, IngestBurst: 1})
		if err != nil {
			t.Fatal(err)
		}
		s.bucket.take(time.Now())
		rec := do(t, s.Handler(), "POST", "/v1/telemetry", bytes.NewBufferString(""))
		if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") != c.want {
			t.Errorf("rate %v, drained bucket: %d with Retry-After %q, want 429 with %q", c.rate, rec.Code, rec.Header().Get("Retry-After"), c.want)
		}
	}
}
