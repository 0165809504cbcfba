package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/buildinfo"
	"repro/internal/pipeline"
	"repro/internal/quality"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// TestQualityEndpointReportsScores: after ingest + learn, GET /v1/quality
// serves a scoreboard with per-pair sMAPE and quantile coverage for every
// ingested window.
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

// TestIngestDoesNotScore: scoring runs on the drift tick and on GET
// /v1/quality, never on the ingest path, so a push while a generation is
// active runs no engine.
func TestIngestDoesNotScore(t *testing.T) {
	s, reg, _ := instrumentedService(t, pipeline.DefaultConfig(), Config{})
	h := s.Handler()
	if rec := do(t, h, "POST", "/v1/telemetry", telemetryBody(t, 1, 30, 87)); rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d", rec.Code)
	}
	if rec := do(t, h, "POST", "/v1/learn", bytes.NewBufferString(`{"pairs":["Service/cpu"]}`)); rec.Code != http.StatusOK {
		t.Fatalf("learn = %d: %s", rec.Code, rec.Body)
	}
	scored := reg.Counter("deeprest_quality_windows_scored_total",
		"Telemetry windows shadow-scored against the active model generation.")
	if rec := do(t, h, "POST", "/v1/telemetry", telemetryBody(t, 1, 30, 88)); rec.Code != http.StatusOK {
		t.Fatalf("second ingest = %d", rec.Code)
	}
	if got := scored.Value(); got != 0 {
		t.Fatalf("an ingest scored %d windows", got)
	}
	do(t, h, "GET", "/v1/quality", nil)
	if got, want := scored.Value(), uint64(s.Windows()); got != want {
		t.Fatalf("GET /v1/quality scored %d windows, want %d", got, want)
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

// TestEarlyRetrainVerdict drives the one early-retrain decision at the
// default config: a model learned on one toy day, then a fresh day pushed and
// one drift tick. A new version whose costs grew 6x and one that renamed its
// operations retrain under trigger "drift"; an unchanged day does not. A
// publish clears the verdict from the status.
func TestEarlyRetrainVerdict(t *testing.T) {
	_, _, run := testutil.ToyTelemetry(t, 2, 30, 85)
	var rename func(*trace.Span)
	rename = func(s *trace.Span) {
		s.Operation += "_v2"
		for _, c := range s.Children {
			rename(c)
		}
	}
	for _, tc := range []struct {
		name    string
		cost    float64
		renamed bool
		reason  string // "" = no retrain
	}{
		{name: "6x cost", cost: 6, reason: "coverage"},
		{name: "renamed operations", cost: 1, renamed: true, reason: "topology"},
		{name: "quiet", cost: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var s *Server
			var atRetrain *quality.Verdict
			cfg := pipeline.DefaultConfig()
			cfg.BeforeTrain = func() { atRetrain = s.Pipeline().Status().LastDrift }
			s, err := NewWithConfig(quickServiceOpts(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := s.Handler()
			day := func(from int, cost float64, renamed bool) *bytes.Buffer {
				store := telemetry.NewServer(run.WindowSeconds)
				for w := from; w < from+testutil.ToyDay; w++ {
					batches := run.Windows[w]
					if renamed {
						batches = make([]trace.Batch, len(run.Windows[w]))
						for i, b := range run.Windows[w] {
							root := b.Trace.Root.Clone()
							rename(root)
							batches[i] = trace.Batch{Trace: trace.Trace{API: b.Trace.API, Root: root}, Count: b.Count}
						}
					}
					usage := sim.Usage{}
					for p, series := range run.Usage {
						usage[p] = cost * series[w]
					}
					store.Record(sim.WindowResult{Batches: batches, Usage: usage})
				}
				var buf bytes.Buffer
				if err := store.ExportJSON(&buf); err != nil {
					t.Fatal(err)
				}
				return &buf
			}
			if rec := do(t, h, "POST", "/v1/telemetry", day(0, 1, false)); rec.Code != http.StatusOK {
				t.Fatalf("ingest = %d", rec.Code)
			}
			if rec := do(t, h, "POST", "/v1/learn", bytes.NewBufferString(`{}`)); rec.Code != http.StatusOK {
				t.Fatalf("learn = %d: %s", rec.Code, rec.Body)
			}
			if rec := do(t, h, "POST", "/v1/telemetry", day(testutil.ToyDay, tc.cost, tc.renamed)); rec.Code != http.StatusOK {
				t.Fatalf("fresh ingest = %d", rec.Code)
			}
			s.Pipeline().TickDrift(context.Background())

			var st pipeline.Status
			_ = json.Unmarshal(do(t, h, "GET", "/v1/pipeline/status", nil).Body.Bytes(), &st)
			var list struct {
				Models []modelInfo `json:"models"`
			}
			_ = json.Unmarshal(do(t, h, "GET", "/v1/models", nil).Body.Bytes(), &list)
			if tc.reason == "" {
				if len(list.Models) != 1 {
					t.Fatalf("%d generations after the tick, want no retrain (verdict %+v)", len(list.Models), st.LastDrift)
				}
				if st.LastDrift == nil || st.LastDrift.Windows != testutil.ToyDay || st.LastDrift.Reason != "" {
					t.Fatalf("status verdict = %+v, want a quiet one over the fresh day", st.LastDrift)
				}
				return
			}
			if len(list.Models) != 2 || list.Models[0].Trigger != "drift" && list.Models[1].Trigger != "drift" {
				t.Fatalf("generations after the tick = %+v, want a retrain with trigger drift", list.Models)
			}
			if atRetrain == nil || !strings.Contains(atRetrain.Reason, tc.reason) {
				t.Fatalf("verdict that retrained = %+v, want a reason naming %s", atRetrain, tc.reason)
			}
			if st.LastDrift != nil {
				t.Fatalf("the publish left the verdict in the status: %+v", st.LastDrift)
			}
		})
	}
}
