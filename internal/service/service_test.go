package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/pipeline"
	"repro/internal/telemetry"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// newTestService spins up a service with a quick estimator configuration.
func newTestService() *Server {
	opts := core.DefaultOptions()
	opts.Estimator.Hidden = 6
	opts.Estimator.Epochs = 8
	opts.Estimator.AttentionEpochs = 1
	opts.Estimator.ChunkLen = 24
	s, err := NewWithConfig(opts, pipeline.DefaultConfig())
	if err != nil {
		panic(err)
	}
	return s
}

// telemetryBody serialises a toy run into the interchange format.
func telemetryBody(t *testing.T, days int, peak float64, seed int64) *bytes.Buffer {
	t.Helper()
	_, _, run := testutil.ToyTelemetry(t, days, peak, seed)
	store := telemetry.NewServer(run.WindowSeconds)
	store.RecordRun(run)
	var buf bytes.Buffer
	if err := store.ExportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func do(t *testing.T, h http.Handler, method, path string, body *bytes.Buffer) *httptest.ResponseRecorder {
	t.Helper()
	if body == nil {
		body = &bytes.Buffer{}
	}
	req := httptest.NewRequest(method, path, body)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestServiceEndToEnd(t *testing.T) {
	h := newTestService().Handler()

	// Status before any data.
	rec := do(t, h, "GET", "/v1/status", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var st statusResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Learned || st.Windows != 0 {
		t.Fatalf("fresh status = %+v", st)
	}

	// Estimate before learning must fail.
	if rec := do(t, h, "POST", "/v1/estimate", bytes.NewBufferString(`{"windows":[{"/read":10}]}`)); rec.Code != http.StatusPreconditionFailed {
		t.Fatalf("premature estimate = %d", rec.Code)
	}

	// Ingest telemetry.
	rec = do(t, h, "POST", "/v1/telemetry", telemetryBody(t, 2, 30, 51))
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", rec.Code, rec.Body)
	}

	// Learn a subset of pairs.
	learn := `{"pairs":["Service/cpu","DB/write_iops"]}`
	rec = do(t, h, "POST", "/v1/learn", bytes.NewBufferString(learn))
	if rec.Code != http.StatusOK {
		t.Fatalf("learn = %d: %s", rec.Code, rec.Body)
	}
	var lr map[string]float64
	_ = json.Unmarshal(rec.Body.Bytes(), &lr)
	if lr["experts"] != 2 {
		t.Fatalf("experts = %v", lr)
	}

	// Status reflects learning.
	rec = do(t, h, "GET", "/v1/status", nil)
	_ = json.Unmarshal(rec.Body.Bytes(), &st)
	if !st.Learned || len(st.Experts) != 2 {
		t.Fatalf("status after learn = %+v", st)
	}

	// Mode-1 estimate.
	traffic := testutil.ToyProgram(1, 45, 99).Generate()
	body, _ := json.Marshal(estimateRequest{Windows: traffic.Windows, WindowsPerDay: traffic.WindowsPerDay})
	rec = do(t, h, "POST", "/v1/estimate", bytes.NewBuffer(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("estimate = %d: %s", rec.Code, rec.Body)
	}
	var er estimateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	cpu, ok := er.Estimates["Service/cpu"]
	if !ok || len(cpu.Exp) != traffic.NumWindows() || cpu.Unit != "mcores" {
		t.Fatalf("estimate payload = %+v", er)
	}
	for i := range cpu.Exp {
		if cpu.Low[i] > cpu.Exp[i] || cpu.Up[i] < cpu.Exp[i] {
			t.Fatal("interval does not bracket the expectation")
		}
	}

	// Mode-2 sanity over the (benign) learning period: no events.
	rec = do(t, h, "POST", "/v1/sanity", bytes.NewBufferString(fmt.Sprintf(`{"from":0,"to":%d}`, st.Windows)))
	if rec.Code != http.StatusOK {
		t.Fatalf("sanity = %d: %s", rec.Code, rec.Body)
	}
	var sr sanityResponse
	_ = json.Unmarshal(rec.Body.Bytes(), &sr)
	if len(sr.Events) != 0 {
		t.Fatalf("benign period raised events: %+v", sr.Events)
	}

	// Influence for a learned pair.
	rec = do(t, h, "GET", "/v1/influence?pair=DB/write_iops", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("influence = %d: %s", rec.Code, rec.Body)
	}
	var ir map[string]map[string]float64
	_ = json.Unmarshal(rec.Body.Bytes(), &ir)
	if len(ir["influence"]) == 0 {
		t.Fatal("no influence data")
	}

	// Model download round-trips through the estimator loader.
	rec = do(t, h, "GET", "/v1/model", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("model = %d", rec.Code)
	}
	if _, err := estimator.Load(rec.Body); err != nil {
		t.Fatalf("downloaded model unreadable: %v", err)
	}

	// Read-only autoscale plan over the trailing telemetry: one
	// contiguous, positive-amount schedule per learned pair, in absolute
	// window indices.
	rec = do(t, h, "GET", "/v1/autoscale/plan?windows=48&interval=8&headroom=0.2", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("autoscale plan = %d: %s", rec.Code, rec.Body)
	}
	var pr planResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.ToWindow != st.Windows || pr.FromWindow != st.Windows-48 {
		t.Fatalf("plan range [%d,%d), want trailing 48 of %d", pr.FromWindow, pr.ToWindow, st.Windows)
	}
	if pr.IntervalWindows != 8 || pr.Headroom != 0.2 || len(pr.Plans) != 2 {
		t.Fatalf("plan shape = %+v", pr)
	}
	for pair, allocs := range pr.Plans {
		cursor := pr.FromWindow
		for _, a := range allocs {
			if a.FromWindow != cursor || a.ToWindow <= a.FromWindow || a.Amount < 0 {
				t.Fatalf("%s: bad allocation %+v at cursor %d", pair, a, cursor)
			}
			cursor = a.ToWindow
		}
		if cursor != pr.ToWindow {
			t.Fatalf("%s: schedule ends at %d, want %d", pair, cursor, pr.ToWindow)
		}
	}
}

func TestServiceIngestAppend(t *testing.T) {
	h := newTestService().Handler()
	if rec := do(t, h, "POST", "/v1/telemetry", telemetryBody(t, 1, 30, 52)); rec.Code != http.StatusOK {
		t.Fatalf("first ingest = %d", rec.Code)
	}
	rec := do(t, h, "POST", "/v1/telemetry", telemetryBody(t, 1, 30, 53))
	if rec.Code != http.StatusOK {
		t.Fatalf("second ingest = %d: %s", rec.Code, rec.Body)
	}
	var out map[string]int
	_ = json.Unmarshal(rec.Body.Bytes(), &out)
	if out["windows"] != 2*testutil.ToyDay {
		t.Fatalf("windows = %d, want %d", out["windows"], 2*testutil.ToyDay)
	}

	// Mismatched window duration is rejected.
	_, _, run := testutil.ToyTelemetry(t, 1, 30, 54)
	store := telemetry.NewServer(run.WindowSeconds * 2)
	store.RecordRun(run)
	var buf bytes.Buffer
	if err := store.ExportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if rec := do(t, h, "POST", "/v1/telemetry", &buf); rec.Code != http.StatusConflict {
		t.Fatalf("mismatched ingest = %d", rec.Code)
	}
	// So is a stream that breaks off mid-window; neither appended anything.
	whole := telemetryBody(t, 1, 30, 54).Bytes()
	if rec := do(t, h, "POST", "/v1/telemetry", bytes.NewBuffer(whole[:len(whole)/2])); rec.Code != http.StatusBadRequest {
		t.Fatalf("truncated ingest = %d", rec.Code)
	}
	var st statusResponse
	_ = json.Unmarshal(do(t, h, "GET", "/v1/status", nil).Body.Bytes(), &st)
	if st.Windows != 2*testutil.ToyDay {
		t.Fatalf("windows after two refused streams = %d, want %d", st.Windows, 2*testutil.ToyDay)
	}
}

func TestServiceErrorPaths(t *testing.T) {
	h := newTestService().Handler()
	if rec := do(t, h, "POST", "/v1/telemetry", bytes.NewBufferString("not json")); rec.Code != http.StatusBadRequest {
		t.Errorf("bad ingest = %d", rec.Code)
	}
	if rec := do(t, h, "POST", "/v1/learn", nil); rec.Code != http.StatusPreconditionFailed {
		t.Errorf("learn without data = %d", rec.Code)
	}
	if rec := do(t, h, "GET", "/v1/influence", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("influence without pair = %d", rec.Code)
	}
	if rec := do(t, h, "GET", "/v1/autoscale/plan", nil); rec.Code != http.StatusPreconditionFailed {
		t.Errorf("plan before learning = %d", rec.Code)
	}
	if rec := do(t, h, "GET", "/v1/autoscale/plan?windows=nope", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("plan with bad windows = %d", rec.Code)
	}
	if rec := do(t, h, "GET", "/v1/autoscale/plan?interval=-3", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("plan with bad interval = %d", rec.Code)
	}
	for _, hr := range []string{"-1", "NaN", "Inf"} {
		if rec := do(t, h, "GET", "/v1/autoscale/plan?headroom="+hr, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("plan with headroom=%s = %d", hr, rec.Code)
		}
	}
	if rec := do(t, h, "GET", "/v1/model", nil); rec.Code != http.StatusPreconditionFailed {
		t.Errorf("model before learn = %d", rec.Code)
	}
	if rec := do(t, h, "POST", "/v1/sanity", bytes.NewBufferString(`{"from":0,"to":5}`)); rec.Code != http.StatusPreconditionFailed {
		t.Errorf("sanity before learn = %d", rec.Code)
	}

	// After ingest + learn, malformed inputs are 4xx.
	if rec := do(t, h, "POST", "/v1/telemetry", telemetryBody(t, 2, 30, 55)); rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d", rec.Code)
	}
	if rec := do(t, h, "POST", "/v1/learn", bytes.NewBufferString(`{"pairs":["nonsense"]}`)); rec.Code != http.StatusBadRequest {
		t.Errorf("learn bad pair = %d", rec.Code)
	}
	if rec := do(t, h, "POST", "/v1/learn", bytes.NewBufferString(`{"pairs":["Service/cpu"]}`)); rec.Code != http.StatusOK {
		t.Fatalf("learn = %d", rec.Code)
	}
	if rec := do(t, h, "POST", "/v1/estimate", bytes.NewBufferString(`{"windows":[]}`)); rec.Code != http.StatusBadRequest {
		t.Errorf("empty estimate = %d", rec.Code)
	}
	// Estimating an unseen API fails in the synthesizer.
	if rec := do(t, h, "POST", "/v1/estimate", bytes.NewBufferString(`{"windows":[{"/mystery":5}]}`)); rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("unknown API estimate = %d", rec.Code)
	}
	if rec := do(t, h, "POST", "/v1/sanity", bytes.NewBufferString(`{"from":-3,"to":1}`)); rec.Code != http.StatusBadRequest {
		t.Errorf("bad sanity range = %d", rec.Code)
	}
	// A headroom whose plan is not finite is refused, never an empty 200.
	for _, hr := range []string{"NaN", "Inf", "1e308"} {
		rec := do(t, h, "GET", "/v1/autoscale/plan?headroom="+hr, nil)
		var e httpError
		if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error == "" {
			t.Errorf("learned plan with headroom=%s = %d %q, want 400 with an error", hr, rec.Code, rec.Body)
		}
	}
}

// TestWriteJSONUnencodable: a value JSON cannot carry is a 500 with the
// uniform error body, not an empty 200.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, map[string]float64{"x": math.NaN()})
	var e httpError
	if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error == "" {
		t.Fatalf("writeJSON(NaN) = %d %q, want 500 with an error field", rec.Code, rec.Body)
	}
}

// TestTrailingDataRefused: a POST body is one JSON value. A second value or
// junk behind it is a 400 on every route that decodes one — they used to
// answer the first value and drop the rest — while whitespace behind it
// still reaches the handler (412 on a server that has learned nothing).
func TestTrailingDataRefused(t *testing.T) {
	h := newTestService().Handler()
	for _, c := range []struct{ path, body string }{
		{"/v1/estimate", `{"windows":[{"/read":1}]}`},
		{"/v1/sanity", `{"from":0,"to":24}`},
		{"/v1/learn", `{"to":24}`},
	} {
		for _, tail := range []string{c.body, " junk", "\n[]", "0"} {
			rec := do(t, h, "POST", c.path, bytes.NewBufferString(c.body+tail))
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "trailing data after the request") {
				t.Errorf("%s with %q behind the request = %d %s, want 400 trailing data", c.path, tail, rec.Code, rec.Body)
			}
		}
		for _, body := range []string{c.body, c.body + "\n", c.body + " \t\r\n"} {
			if rec := do(t, h, "POST", c.path, bytes.NewBufferString(body)); rec.Code != http.StatusPreconditionFailed {
				t.Errorf("%s with body %q = %d %s, want it decoded (412)", c.path, body, rec.Code, rec.Body)
			}
		}
	}
}

// TestServiceAnonymizedMode: an anonymised tenant leaks no plaintext name,
// and still answers: the same telemetry learned plain and hashed gives the
// same API influence once the plain keys are mapped through the hasher (the
// handler used to probe the hashed model with raw traces, so every path was
// unknown and every influence 0).
func TestServiceAnonymizedMode(t *testing.T) {
	influence := func(anonymize bool) map[string]float64 {
		opts := core.DefaultOptions()
		opts.Estimator.Hidden = 4
		opts.Estimator.Epochs = 4
		opts.Estimator.AttentionEpochs = 0
		opts.Estimator.ChunkLen = 24
		opts.Anonymize = anonymize
		opts.HashSalt = "svc"
		s, err := NewWithConfig(opts, pipeline.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		if rec := do(t, h, "POST", "/v1/telemetry", telemetryBody(t, 1, 25, 56)); rec.Code != http.StatusOK {
			t.Fatal("ingest failed")
		}
		if rec := do(t, h, "POST", "/v1/learn", bytes.NewBufferString(`{"pairs":["DB/cpu"]}`)); rec.Code != http.StatusOK {
			t.Fatalf("learn = %d", rec.Code)
		}
		rec := do(t, h, "GET", "/v1/influence?pair=DB/cpu", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("influence = %d: %s", rec.Code, rec.Body)
		}
		if anonymize && strings.Contains(rec.Body.String(), "Gateway") {
			t.Error("plaintext component name leaked in anonymized mode")
		}
		var resp struct {
			Influence map[string]float64 `json:"influence"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Influence
	}
	plain, hashed := influence(false), influence(true)
	hasher := trace.NewHasher("svc")
	want, top := map[string]float64{}, 0.0
	for key, v := range plain {
		component, operation, _ := strings.Cut(key, ":")
		want[hasher.Hash(component)+":"+hasher.Hash(operation)] = v
		top = math.Max(top, v)
	}
	if top != 1 || !reflect.DeepEqual(hashed, want) {
		t.Errorf("anonymised influence = %v, want the plain one under hashed keys %v (from %v)", hashed, want, plain)
	}
}
