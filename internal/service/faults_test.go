package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/pipeline"
)

func newFaultService(t *testing.T, pcfg pipeline.Config, cfg Config) *Server {
	t.Helper()
	s, err := New(quickServiceOpts(), pcfg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

const predictBody = `{"windows":[{"/read":10,"/write":4},{"/read":20,"/write":6}]}`

// TestDegradedServingDuringInjectedRetrainFailure is the acceptance e2e:
// while an injected retrain failure is in progress, /v1/estimate keeps
// returning 200s from the last good generation, and /v1/status reports the
// degraded state until a later retrain succeeds.
func TestDegradedServingDuringInjectedRetrainFailure(t *testing.T) {
	hold := make(chan struct{})
	var once sync.Once
	pcfg := pipeline.DefaultConfig()
	// Attempts 2 and 3 fail; attempt 2 is additionally held in flight so
	// the test can query mid-failure deterministically.
	pcfg.Faults = faults.NewSchedule(faults.MustParse("retrainfail:from=2,to=4"))
	attempt := 0
	pcfg.BeforeTrain = func() {
		attempt++
		if attempt == 2 {
			once.Do(func() { <-hold })
		}
	}
	s := newFaultService(t, pcfg, Config{})
	h := s.Handler()

	if rec := do(t, h, "POST", "/v1/telemetry", telemetryBody(t, 1, 30, 61)); rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, h, "POST", "/v1/learn", bytes.NewBufferString(`{"pairs":["Service/cpu"]}`)); rec.Code != http.StatusOK {
		t.Fatalf("learn = %d: %s", rec.Code, rec.Body)
	}

	// Kick off the failing retrain and hold it in flight.
	learnDone := make(chan *bytes.Buffer, 1)
	go func() {
		rec := do(t, h, "POST", "/v1/learn", nil)
		learnDone <- bytes.NewBufferString(fmt.Sprintf("%d %s", rec.Code, rec.Body))
	}()

	// While the retrain is in progress, predictions serve from generation 1.
	for i := 0; i < 5; i++ {
		rec := do(t, h, "POST", "/v1/estimate", bytes.NewBufferString(predictBody))
		if rec.Code != http.StatusOK {
			t.Fatalf("predict during retrain = %d: %s", rec.Code, rec.Body)
		}
		var resp estimateResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Version != 1 {
			t.Fatalf("predict served version %d during retrain, want 1", resp.Version)
		}
	}
	close(hold)
	if out := <-learnDone; !strings.HasPrefix(out.String(), "422") || !strings.Contains(out.String(), "injected") {
		t.Fatalf("failing learn = %s", out)
	}

	// The failure left the service degraded but fully serving.
	var st statusResponse
	rec := do(t, h, "GET", "/v1/status", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if !st.Degraded || !st.Learned || st.Version != 1 {
		t.Fatalf("status after injected failure = %+v", st)
	}
	if rec := do(t, h, "POST", "/v1/estimate", bytes.NewBufferString(predictBody)); rec.Code != http.StatusOK {
		t.Fatalf("predict while degraded = %d", rec.Code)
	}

	// Attempt 3 fails too; attempt 4 is past the fault window and recovers.
	if rec := do(t, h, "POST", "/v1/learn", nil); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("second failing learn = %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, h, "POST", "/v1/learn", nil); rec.Code != http.StatusOK {
		t.Fatalf("recovery learn = %d: %s", rec.Code, rec.Body)
	}
	rec = do(t, h, "GET", "/v1/status", nil)
	st = statusResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Degraded || st.Version != 2 {
		t.Fatalf("status after recovery = %+v", st)
	}
}

// TestAdmissionControlShedsAtCapacity: with MaxInflight=1 and a training
// request holding the only slot, a concurrent request is shed with 503 and
// Retry-After — while the operator /metrics endpoint stays reachable.
func TestAdmissionControlShedsAtCapacity(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	pcfg := pipeline.DefaultConfig()
	pcfg.BeforeTrain = func() {
		once.Do(func() {
			close(entered)
			<-release
		})
	}
	s := newFaultService(t, pcfg, Config{MaxInflight: 1})
	h := s.Handler()

	if rec := do(t, h, "POST", "/v1/telemetry", telemetryBody(t, 1, 30, 62)); rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", rec.Code, rec.Body)
	}

	learnDone := make(chan int, 1)
	go func() {
		rec := do(t, h, "POST", "/v1/learn", bytes.NewBufferString(`{"pairs":["Service/cpu"]}`))
		learnDone <- rec.Code
	}()
	<-entered // the learn holds the single admission slot

	rec := do(t, h, "GET", "/v1/status", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("request over capacity = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	close(release)
	if code := <-learnDone; code != http.StatusOK {
		t.Fatalf("held learn = %d", code)
	}
	// Capacity freed: requests are admitted again.
	if rec := do(t, h, "GET", "/v1/status", nil); rec.Code != http.StatusOK {
		t.Fatalf("status after release = %d", rec.Code)
	}
}

// TestRequestDeadlineAbortsTraining: a training request that outlives the
// per-request deadline is abandoned at the next phase boundary with 504 and
// never publishes, leaving the serving model untouched.
func TestRequestDeadlineAbortsTraining(t *testing.T) {
	var once sync.Once
	pcfg := pipeline.DefaultConfig()
	pcfg.BeforeTrain = func() {
		once.Do(func() { time.Sleep(600 * time.Millisecond) }) // outlive the deadline once
	}
	s := newFaultService(t, pcfg, Config{RequestTimeout: 300 * time.Millisecond})
	h := s.Handler()

	if rec := do(t, h, "POST", "/v1/telemetry", telemetryBody(t, 1, 30, 63)); rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, h, "POST", "/v1/learn", bytes.NewBufferString(`{"pairs":["Service/cpu"]}`)); rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("over-deadline learn = %d: %s", rec.Code, rec.Body)
	}
	var st statusResponse
	rec := do(t, h, "GET", "/v1/status", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Learned {
		t.Fatal("timed-out training published a generation")
	}
	// The slot is free and fast requests fit the deadline fine.
	if rec := do(t, h, "POST", "/v1/learn", bytes.NewBufferString(`{"pairs":["Service/cpu"]}`)); rec.Code != http.StatusOK {
		t.Fatalf("learn after timeout = %d: %s", rec.Code, rec.Body)
	}
}
