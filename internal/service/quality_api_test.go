package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/buildinfo"
	"repro/internal/pipeline"
	"repro/internal/quality"
)

// TestQualityEndpointReportsScores: after ingest + learn, GET /v1/quality
// serves a scoreboard with per-pair sMAPE and quantile coverage for every
// complete chunk of ingested telemetry.
func TestQualityEndpointReportsScores(t *testing.T) {
	s, err := NewWithConfig(quickServiceOpts(), pipeline.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	// Before any model exists the endpoint answers (empty board), not 500s.
	rec := do(t, h, "GET", "/v1/quality", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("quality before learn = %d: %s", rec.Code, rec.Body)
	}
	var empty quality.Report
	_ = json.Unmarshal(rec.Body.Bytes(), &empty)
	if empty.WindowsScored != 0 || empty.Summary != "empty" {
		t.Fatalf("pre-learn report = %+v", empty)
	}

	if rec := do(t, h, "POST", "/v1/telemetry", telemetryBody(t, 2, 30, 81)); rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d", rec.Code)
	}
	if rec := do(t, h, "POST", "/v1/learn", bytes.NewBufferString(`{"pairs":["Service/cpu","DB/write_iops"]}`)); rec.Code != http.StatusOK {
		t.Fatalf("learn = %d: %s", rec.Code, rec.Body)
	}
	// Fresh telemetry arriving after the publish is what shadow scoring
	// exists for; the report must cover it too.
	if rec := do(t, h, "POST", "/v1/telemetry", telemetryBody(t, 1, 34, 82)); rec.Code != http.StatusOK {
		t.Fatalf("second ingest = %d", rec.Code)
	}

	rec = do(t, h, "GET", "/v1/quality", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("quality = %d: %s", rec.Code, rec.Body)
	}
	var rep quality.Report
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Version != 1 || rep.WindowsScored == 0 {
		t.Fatalf("report head = %+v", rep)
	}
	if rep.Summary == "" || rep.Summary == "empty" {
		t.Fatalf("summary = %q", rep.Summary)
	}
	if len(rep.Horizons) == 0 {
		t.Fatal("no horizons in report")
	}
	long := rep.Horizons[len(rep.Horizons)-1]
	if len(long.Pairs) == 0 {
		t.Fatal("no per-pair scores")
	}
	cpu, ok := long.Pairs["Service/cpu"]
	if !ok || cpu.SMAPE <= 0 || cpu.Unit != "mcores" {
		t.Fatalf("Service/cpu score = %+v (present=%v)", cpu, ok)
	}
	if long.Coverage <= 0 || long.Coverage > 1 {
		t.Fatalf("coverage = %v", long.Coverage)
	}
	if len(long.APIs) == 0 {
		t.Fatal("no per-API attribution")
	}
}

// TestVersionEndpoint: /v1/version reports the build identity, and /v1/status
// carries the same version string.
func TestVersionEndpoint(t *testing.T) {
	h := newTestService().Handler()
	rec := do(t, h, "GET", "/v1/version", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("version = %d", rec.Code)
	}
	var v map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if v["version"] != buildinfo.Version || v["go_version"] == "" {
		t.Fatalf("version body = %v", v)
	}
	var st statusResponse
	rec = do(t, h, "GET", "/v1/status", nil)
	_ = json.Unmarshal(rec.Body.Bytes(), &st)
	if st.ServerVersion != buildinfo.Version {
		t.Fatalf("status server_version = %q, want %q", st.ServerVersion, buildinfo.Version)
	}
}

// TestActivateConflictDuringTraining: an explicit rollback racing an
// in-flight training generation is refused with 409, and succeeds once the
// generation publishes.
func TestActivateConflictDuringTraining(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	enter, release := make(chan struct{}), make(chan struct{})
	var gate sync.Once
	held := false
	cfg.BeforeTrain = func() {
		gate.Do(func() { held = true; close(enter); <-release })
	}
	s, err := NewWithConfig(quickServiceOpts(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if rec := do(t, h, "POST", "/v1/telemetry", telemetryBody(t, 1, 30, 83)); rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d", rec.Code)
	}

	done := make(chan int, 1)
	go func() {
		rec := do(t, h, "POST", "/v1/learn", bytes.NewBufferString(`{"pairs":["Service/cpu"]}`))
		done <- rec.Code
	}()
	<-enter
	if !held {
		t.Fatal("BeforeTrain gate did not run")
	}

	rec := do(t, h, "POST", "/v1/models/1/activate", nil)
	if rec.Code != http.StatusConflict {
		t.Fatalf("activate during learn = %d, want %d: %s", rec.Code, http.StatusConflict, rec.Body)
	}
	var body httpError
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
		t.Fatalf("409 body = %s (%v)", rec.Body, err)
	}

	close(release)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("learn = %d", code)
	}
	if rec := do(t, h, "POST", "/v1/models/1/activate", nil); rec.Code != http.StatusOK {
		t.Fatalf("activate after publish = %d: %s", rec.Code, rec.Body)
	}
}

// TestActivateQuarantinedVersion404: a version whose checkpoint was
// quarantined as corrupt at recovery is simply absent from the registry —
// activating it is 404, and the pipeline status names the quarantined file.
func TestActivateQuarantinedVersion404(t *testing.T) {
	dir := t.TempDir()
	cfg := pipeline.DefaultConfig()
	cfg.CheckpointDir = dir
	s1, err := NewWithConfig(quickServiceOpts(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	h1 := s1.Handler()
	if rec := do(t, h1, "POST", "/v1/telemetry", telemetryBody(t, 1, 30, 84)); rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d", rec.Code)
	}
	for i := 0; i < 2; i++ {
		if rec := do(t, h1, "POST", "/v1/learn", bytes.NewBufferString(`{"pairs":["Service/cpu"]}`)); rec.Code != http.StatusOK {
			t.Fatalf("learn %d = %d: %s", i, rec.Code, rec.Body)
		}
	}
	// Rot generation 2 on disk behind the registry's back.
	if err := os.WriteFile(filepath.Join(dir, "gen-000002.ckpt"), []byte("rotten"), 0o644); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh service recovering from the same directory
	// quarantines the rotten file and falls back to version 1.
	s2, err := NewWithConfig(quickServiceOpts(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Pipeline().Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	h2 := s2.Handler()

	if rec := do(t, h2, "POST", "/v1/models/2/activate", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("activate quarantined = %d, want 404: %s", rec.Code, rec.Body)
	}
	rec := do(t, h2, "GET", "/v1/pipeline/status", nil)
	var st pipeline.Status
	_ = json.Unmarshal(rec.Body.Bytes(), &st)
	if st.ActiveVersion != 1 || len(st.Quarantined) != 1 {
		t.Fatalf("status after quarantine = %+v", st)
	}
}

// TestQualityRegressionTriggersRetrain: with the regression gate armed at an
// absurdly low threshold, the pipeline's drift tick consults the shadow
// scoreboard and schedules an early retrain with trigger "quality".
func TestQualityRegressionTriggersRetrain(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	cfg.MinDriftWindows = 1 << 30 // drift never fires; only quality can
	// Any nonzero error regresses immediately: threshold ~0, one bad window.
	s, err := New(quickServiceOpts(), cfg, Config{QualityThreshold: 1e-9, QualitySustain: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	if rec := do(t, h, "POST", "/v1/telemetry", telemetryBody(t, 1, 30, 85)); rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d", rec.Code)
	}
	if rec := do(t, h, "POST", "/v1/learn", bytes.NewBufferString(`{"pairs":["Service/cpu"]}`)); rec.Code != http.StatusOK {
		t.Fatalf("learn = %d: %s", rec.Code, rec.Body)
	}
	// Fresh windows to score (and to satisfy MinNewWindows for the retrain).
	if rec := do(t, h, "POST", "/v1/telemetry", telemetryBody(t, 1, 60, 86)); rec.Code != http.StatusOK {
		t.Fatalf("shifted ingest = %d", rec.Code)
	}
	// One drift tick, as the fleet scheduler would deliver it.
	s.Pipeline().TickDrift(context.Background())

	rec := do(t, h, "GET", "/v1/models", nil)
	var list struct {
		Models []modelInfo `json:"models"`
	}
	_ = json.Unmarshal(rec.Body.Bytes(), &list)
	for _, m := range list.Models {
		if m.Trigger == "quality" {
			rec = do(t, h, "GET", "/v1/pipeline/status", nil)
			var st pipeline.Status
			_ = json.Unmarshal(rec.Body.Bytes(), &st)
			if st.LastQuality == "" {
				t.Fatalf("quality retrain published but status carries no reason: %+v", st)
			}
			return
		}
	}
	t.Fatalf("the drift tick published no quality-triggered generation: %s", rec.Body)
}
