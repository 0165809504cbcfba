package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
)

// quickServiceOpts mirrors newTestService but trains even faster, for tests
// that run many generations (possibly under -race).
// Five epochs are the fewest at which a model covers at least half of its
// own toy windows with its interval, as the drift verdict's tests assume:
// after four (eight Adam steps) the heads of an expert reading few paths
// have not yet spread apart.
func quickServiceOpts() core.Options {
	opts := core.DefaultOptions()
	opts.Estimator.Hidden = 3
	opts.Estimator.Epochs = 5
	opts.Estimator.AttentionEpochs = 0
	opts.Estimator.ChunkLen = 24
	return opts
}

// TestLearnConflictReturns409: a /v1/learn issued while another generation
// is training fails fast with 409 Conflict and a JSON error body.
func TestLearnConflictReturns409(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	enter, release := make(chan struct{}), make(chan struct{})
	var gate sync.Once
	cfg.BeforeTrain = func() {
		gate.Do(func() { // only the first generation blocks
			close(enter)
			<-release
		})
	}
	s, err := NewWithConfig(quickServiceOpts(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if rec := do(t, h, "POST", "/v1/telemetry", telemetryBody(t, 1, 30, 71)); rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d", rec.Code)
	}

	firstDone := make(chan int, 1)
	go func() {
		rec := do(t, h, "POST", "/v1/learn", bytes.NewBufferString(`{"pairs":["Service/cpu"]}`))
		firstDone <- rec.Code
	}()
	<-enter

	rec := do(t, h, "POST", "/v1/learn", bytes.NewBufferString(`{"pairs":["Service/cpu"]}`))
	if rec.Code != http.StatusConflict {
		t.Fatalf("concurrent learn = %d, want %d", rec.Code, http.StatusConflict)
	}
	var body httpError
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("409 body is not JSON: %s", rec.Body)
	}
	if body.Error == "" {
		t.Fatal("409 body carries no error message")
	}

	close(release)
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("first learn = %d", code)
	}
	// The slot is free again.
	if rec := do(t, h, "POST", "/v1/learn", bytes.NewBufferString(`{"pairs":["Service/cpu"]}`)); rec.Code != http.StatusOK {
		t.Fatalf("learn after release = %d: %s", rec.Code, rec.Body)
	}
}

// TestModelsListAndActivate exercises the registry endpoints: listing
// retained generations and rolling the serving model back and forward.
func TestModelsListAndActivate(t *testing.T) {
	s, err := NewWithConfig(quickServiceOpts(), pipeline.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if rec := do(t, h, "POST", "/v1/telemetry", telemetryBody(t, 1, 30, 72)); rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d", rec.Code)
	}
	for i := 0; i < 2; i++ {
		if rec := do(t, h, "POST", "/v1/learn", bytes.NewBufferString(`{"pairs":["Service/cpu"]}`)); rec.Code != http.StatusOK {
			t.Fatalf("learn %d = %d: %s", i, rec.Code, rec.Body)
		}
	}

	rec := do(t, h, "GET", "/v1/models", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("models = %d", rec.Code)
	}
	var list struct {
		Models []modelInfo `json:"models"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Models) != 2 {
		t.Fatalf("models = %+v", list.Models)
	}
	if list.Models[0].Version != 1 || list.Models[0].Active || !list.Models[1].Active {
		t.Fatalf("active flags wrong: %+v", list.Models)
	}
	if !list.Models[1].Warm || list.Models[1].Trigger != "manual" {
		t.Fatalf("second generation metadata = %+v", list.Models[1])
	}

	if got := s.store.ExtractorGen(); got != 2 {
		t.Fatalf("store extracts for generation %d after two publishes, want 2", got)
	}

	// Roll back to v1; status and estimates now report version 1, and the
	// store extracts in its feature space.
	if rec := do(t, h, "POST", "/v1/models/1/activate", nil); rec.Code != http.StatusOK {
		t.Fatalf("activate = %d: %s", rec.Code, rec.Body)
	}
	if got := s.store.ExtractorGen(); got != 1 {
		t.Fatalf("store extracts for generation %d after rollback, want 1", got)
	}
	var st statusResponse
	rec = do(t, h, "GET", "/v1/status", nil)
	_ = json.Unmarshal(rec.Body.Bytes(), &st)
	if st.Version != 1 || st.Generations != 2 {
		t.Fatalf("status after rollback = %+v", st)
	}
	rec = do(t, h, "POST", "/v1/estimate", bytes.NewBufferString(`{"windows":[{"/read":10}]}`))
	if rec.Code != http.StatusOK {
		t.Fatalf("estimate = %d: %s", rec.Code, rec.Body)
	}
	var er estimateResponse
	_ = json.Unmarshal(rec.Body.Bytes(), &er)
	if er.Version != 1 {
		t.Fatalf("estimate version = %d, want 1", er.Version)
	}

	// Unknown and malformed versions.
	if rec := do(t, h, "POST", "/v1/models/99/activate", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("activate unknown = %d", rec.Code)
	}
	if rec := do(t, h, "POST", "/v1/models/banana/activate", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("activate malformed = %d", rec.Code)
	}
}

// TestRecoveredGenerationOverEmptyStore pins what a restarted push-only
// tenant answers: the recovered generation is active at once, so nothing says
// "not learned yet"; reads that need telemetry fail with the store's own
// range error; Mode-1 is 422 — the recovered synthesizer was learned from
// the empty store and is immutable — before and after telemetry is pushed
// again, until the next generation is learned from it.
func TestRecoveredGenerationOverEmptyStore(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	cfg.CheckpointDir = t.TempDir()
	s1, err := NewWithConfig(quickServiceOpts(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(t, s1.Handler(), "POST", "/v1/telemetry", telemetryBody(t, 1, 30, 73)); rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d", rec.Code)
	}
	if rec := do(t, s1.Handler(), "POST", "/v1/learn", bytes.NewBufferString(`{"pairs":["Service/cpu"]}`)); rec.Code != http.StatusOK {
		t.Fatalf("learn = %d: %s", rec.Code, rec.Body)
	}

	s2, err := NewWithConfig(quickServiceOpts(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s2.Pipeline().Recover(); err != nil || n != 1 {
		t.Fatalf("Recover = %d, %v", n, err)
	}
	h := s2.Handler()
	const estimate = `{"windows":[{"/read":10}]}`
	check := func(stage, method, path, body string, code int, say string) {
		t.Helper()
		rec := do(t, h, method, path, bytes.NewBufferString(body))
		if rec.Code != code || !strings.Contains(rec.Body.String(), say) {
			t.Errorf("%s: %s %s = %d %s, want %d mentioning %q", stage, method, path, rec.Code, rec.Body, code, say)
		}
	}
	for _, c := range []struct {
		method, path, body string
		code               int
		say                string
	}{
		{"GET", "/v1/status", "", 200, `"version":1`},
		{"GET", "/v1/models", "", 200, `"active":true`},
		{"GET", "/v1/model", "", 200, ""},
		{"POST", "/v1/estimate", estimate, 422, "never observed"},
		{"POST", "/v1/sanity", `{"from":0,"to":5}`, 400, "out of bounds (windows [0, 0) resident)"},
		{"GET", "/v1/influence?pair=Service/cpu", "", 412, "no telemetry windows to probe"},
		{"GET", "/v1/autoscale/plan", "", 412, "no telemetry windows to plan from"},
	} {
		check("empty store", c.method, c.path, c.body, c.code, c.say)
	}

	if rec := do(t, h, "POST", "/v1/telemetry", telemetryBody(t, 1, 30, 73)); rec.Code != http.StatusOK {
		t.Fatalf("re-push = %d", rec.Code)
	}
	check("re-pushed", "POST", "/v1/estimate", estimate, 422, "never observed")
	check("re-pushed", "POST", "/v1/sanity", `{"from":0,"to":5}`, 200, `"version":1`)
	check("re-pushed", "GET", "/v1/autoscale/plan", "", 200, `"version":1`)
	if rec := do(t, h, "POST", "/v1/learn", bytes.NewBufferString(`{"pairs":["Service/cpu"]}`)); rec.Code != http.StatusOK {
		t.Fatalf("learn after re-push = %d: %s", rec.Code, rec.Body)
	}
	check("relearned", "POST", "/v1/estimate", estimate, 200, `"version":2`)
}

// TestPipelineStartStopStatus: a server owns no retrain loop — the start/stop
// endpoints are gone and a scheduler drives the ticks — and
// /v1/pipeline/status reports what those ticks did.
func TestPipelineStartStopStatus(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	cfg.DriftEvery = time.Hour // keep drift checks out of the scheduled tick's way
	s, err := NewWithConfig(quickServiceOpts(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	for _, verb := range []string{"start", "stop"} {
		if rec := do(t, h, "POST", "/v1/pipeline/"+verb, nil); rec.Code != http.StatusNotFound {
			t.Fatalf("POST /v1/pipeline/%s = %d, want 404", verb, rec.Code)
		}
	}
	status := func() pipeline.Status {
		t.Helper()
		rec := do(t, h, "GET", "/v1/pipeline/status", nil)
		var st pipeline.Status
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("pipeline status: %v: %s", err, rec.Body)
		}
		return st
	}
	// A tick before any telemetry does nothing.
	s.Pipeline().TickScheduled(context.Background())
	if st := status(); st.Generations != 0 || st.InFlight {
		t.Fatalf("status after an empty tick = %+v", st)
	}
	if rec := do(t, h, "POST", "/v1/telemetry", telemetryBody(t, 1, 30, 72)); rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d", rec.Code)
	}
	if rec := do(t, h, "POST", "/v1/learn", bytes.NewBufferString(`{"pairs":["Service/cpu"]}`)); rec.Code != http.StatusOK {
		t.Fatalf("learn = %d: %s", rec.Code, rec.Body)
	}
	// No fresh windows: the scheduled tick holds. With them: it retrains up
	// to the newest window.
	s.Pipeline().TickScheduled(context.Background())
	if st := status(); st.Generations != 1 {
		t.Fatalf("tick without fresh telemetry retrained: %+v", st)
	}
	if rec := do(t, h, "POST", "/v1/telemetry", telemetryBody(t, 1, 30, 73)); rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d", rec.Code)
	}
	s.Pipeline().TickScheduled(context.Background())
	if st := status(); st.Generations != 2 || st.ActiveVersion != 2 || st.TrainedTo != s.Windows() {
		t.Fatalf("status after a scheduled tick = %+v (store holds %d windows)", st, s.Windows())
	}
}

// TestEstimateConsistentDuringRetrain is the acceptance test for the atomic
// serving swap: clients hammer /v1/estimate while generations retrain and
// publish in the background. Every response must be exactly the output of
// ONE published generation — the version tag must never pair with estimate
// series from a different generation (no half-swapped models).
func TestEstimateConsistentDuringRetrain(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	cfg.MaxHistory = 8 // retain every generation so all can be replayed
	s, err := NewWithConfig(quickServiceOpts(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if rec := do(t, h, "POST", "/v1/telemetry", telemetryBody(t, 1, 30, 73)); rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d", rec.Code)
	}
	// Two experts per generation: a mixed snapshot would pair Service/cpu
	// from one generation with DB/cpu from another.
	learn := `{"pairs":["Service/cpu","DB/cpu"]}`
	if rec := do(t, h, "POST", "/v1/learn", bytes.NewBufferString(learn)); rec.Code != http.StatusOK {
		t.Fatalf("initial learn = %d: %s", rec.Code, rec.Body)
	}

	const generations = 4
	probe := `{"windows":[{"/read":12,"/write":3},{"/read":40,"/write":9}],"windows_per_day":48}`

	type observation struct {
		version int
		body    string
	}
	var (
		obsMu sync.Mutex
		obs   []observation
	)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := do(t, h, "POST", "/v1/estimate", bytes.NewBufferString(probe))
				if rec.Code != http.StatusOK {
					t.Errorf("estimate during retrain = %d: %s", rec.Code, rec.Body)
					return
				}
				var er estimateResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
					t.Errorf("estimate body: %v", err)
					return
				}
				obsMu.Lock()
				obs = append(obs, observation{er.Version, rec.Body.String()})
				obsMu.Unlock()
			}
		}()
	}

	// Warm-started retrains publish while the readers run; each generation
	// differs from the last, so a stale or mixed expert changes the body.
	// Between publishes, wait for fresh observations so that (on small
	// machines) every generation is actually exercised concurrently.
	waitObs := func(min int) {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			obsMu.Lock()
			n := len(obs)
			obsMu.Unlock()
			if n >= min {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Error("timed out waiting for concurrent estimates")
	}
	for i := 0; i < generations; i++ {
		waitObs((i + 1) * 5)
		if rec := do(t, h, "POST", "/v1/learn", bytes.NewBufferString(learn)); rec.Code != http.StatusOK {
			t.Fatalf("retrain %d = %d: %s", i, rec.Code, rec.Body)
		}
	}
	waitObs((generations + 1) * 5)
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}
	if len(obs) == 0 {
		t.Fatal("no estimates observed during retraining")
	}

	// Replay: activate each retained generation and capture its canonical
	// response to the probe. The handler output is a pure function of
	// (generation, probe), so every concurrent observation must byte-match
	// the canonical body for its advertised version.
	canonical := make(map[int]string)
	for _, g := range s.Pipeline().Registry().Generations() {
		rec := do(t, h, "POST", "/v1/models/"+itoa(g.Version)+"/activate", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("activate v%d = %d", g.Version, rec.Code)
		}
		rec = do(t, h, "POST", "/v1/estimate", bytes.NewBufferString(probe))
		if rec.Code != http.StatusOK {
			t.Fatalf("canonical estimate v%d = %d", g.Version, rec.Code)
		}
		canonical[g.Version] = rec.Body.String()
	}
	if len(canonical) != generations+1 {
		t.Fatalf("retained %d generations, want %d", len(canonical), generations+1)
	}
	// Sanity: the generations genuinely differ, or the check is vacuous.
	if canonical[1] == canonical[generations+1] {
		t.Fatal("first and last generation estimate identically; cannot detect mixing")
	}
	versionsSeen := make(map[int]int)
	for _, o := range obs {
		want, ok := canonical[o.version]
		if !ok {
			t.Fatalf("observed unknown version %d", o.version)
		}
		if o.body != want {
			t.Fatalf("version %d response does not match its generation:\ngot  %s\nwant %s", o.version, o.body, want)
		}
		versionsSeen[o.version]++
	}
	t.Logf("%d estimates across versions %v", len(obs), versionsSeen)
}

func itoa(v int) string {
	b, _ := json.Marshal(v)
	return string(b)
}
