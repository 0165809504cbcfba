package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/testutil"
	"repro/internal/topo"
	"repro/internal/workload"
)

// The cross-tenant isolation wall. The contract under test: a fleet is
// indistinguishable, tenant by tenant, from the same applications run as
// isolated single-tenant daemons — bit-identical estimates, no shared
// mutable state, no cross-tenant lifecycle effects.

// quickOpts is the fast estimator configuration every service-layer test in
// the repo uses: small net, few epochs, short chunks.
func quickOpts() core.Options {
	opts := core.DefaultOptions()
	opts.Estimator.Hidden = 6
	opts.Estimator.Epochs = 8
	opts.Estimator.AttentionEpochs = 1
	opts.Estimator.ChunkLen = 24
	return opts
}

func do(t testing.TB, h http.Handler, method, path string, body *bytes.Buffer) *httptest.ResponseRecorder {
	t.Helper()
	if body == nil {
		body = &bytes.Buffer{}
	}
	req := httptest.NewRequest(method, path, body)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// toyBody serialises a toy run into the telemetry interchange format.
func toyBody(t testing.TB, days int, peak float64, seed int64) *bytes.Buffer {
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

// estimateBody builds a deterministic estimate request for the given
// topology spec: one day of two-peak traffic over the spec's API mix.
func estimateBody(t testing.TB, spec string) *bytes.Buffer {
	t.Helper()
	_, mix, err := topo.Resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	prog := workload.Uniform(1, workload.DaySpec{Shape: workload.TwoPeak{}, Mix: mix, PeakRPS: 20})
	prog.WindowsPerDay = 24
	prog.WindowSeconds = 60
	prog.Seed = 77
	traffic := prog.Generate()
	body, err := json.Marshal(map[string]interface{}{
		"windows": traffic.Windows, "windows_per_day": traffic.WindowsPerDay,
	})
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewBuffer(body)
}

// wallTenants is the isolation wall's tenant roster: two paper topologies
// plus a generated production-scale one, each with the pair it learns.
var wallTenants = []struct{ id, spec, pair string }{
	{"social", "social", "UserService/cpu"},
	{"hotel", "hotel", "FrontendService/cpu"},
	{"synth", "gen:seed=9,components=60", "Gateway00/cpu"},
}

// TestFleetIsolationBitIdentical boots one 3-tenant fleet and three
// isolated single-tenant services from the same specs, trains each on the
// same pair, and requires byte-for-byte identical estimate responses. Any
// state bleeding between tenants — a shared RNG, a shared feature cache, a
// mixed-up ring — breaks bit-equality.
func TestFleetIsolationBitIdentical(t *testing.T) {
	fl := New(Config{Opts: quickOpts(), Pipeline: pipeline.DefaultConfig()})
	for _, wt := range wallTenants {
		if _, err := fl.Create(TenantSpec{App: wt.id, Spec: wt.spec}); err != nil {
			t.Fatalf("create %s: %v", wt.id, err)
		}
	}
	fh := fl.Handler()
	// Train fleet tenants in an order interleaved with queries so any
	// cross-tenant contamination has a chance to surface.
	for _, wt := range wallTenants {
		learn := bytes.NewBufferString(fmt.Sprintf(`{"pairs":[%q]}`, wt.pair))
		if rec := do(t, fh, "POST", "/v1/t/"+wt.id+"/v1/learn", learn); rec.Code != http.StatusOK {
			t.Fatalf("fleet learn %s = %d: %s", wt.id, rec.Code, rec.Body)
		}
	}

	for _, wt := range wallTenants {
		// The isolated control: same opts, same bootstrap, same learn.
		srv, err := service.NewWithConfig(quickOpts(), pipeline.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		run, err := BootstrapRun(wt.spec, 1)
		if err != nil {
			t.Fatalf("bootstrap %s: %v", wt.id, err)
		}
		if err := srv.Bootstrap(run); err != nil {
			t.Fatal(err)
		}
		sh := srv.Handler()
		learn := bytes.NewBufferString(fmt.Sprintf(`{"pairs":[%q]}`, wt.pair))
		if rec := do(t, sh, "POST", "/v1/learn", learn); rec.Code != http.StatusOK {
			t.Fatalf("solo learn %s = %d: %s", wt.id, rec.Code, rec.Body)
		}

		fleetRec := do(t, fh, "POST", "/v1/t/"+wt.id+"/v1/estimate", estimateBody(t, wt.spec))
		soloRec := do(t, sh, "POST", "/v1/estimate", estimateBody(t, wt.spec))
		if fleetRec.Code != http.StatusOK || soloRec.Code != http.StatusOK {
			t.Fatalf("%s: estimate fleet=%d solo=%d: %s", wt.id, fleetRec.Code, soloRec.Code, fleetRec.Body)
		}
		if !bytes.Equal(fleetRec.Body.Bytes(), soloRec.Body.Bytes()) {
			t.Errorf("%s: fleet estimate diverges from the isolated daemon\nfleet: %s\nsolo:  %s",
				wt.id, fleetRec.Body, soloRec.Body)
		}
	}

	// The legacy un-prefixed surface aliases the first-created tenant.
	legacy := do(t, fh, "POST", "/v1/estimate", estimateBody(t, wallTenants[0].spec))
	direct := do(t, fh, "POST", "/v1/t/"+wallTenants[0].id+"/v1/estimate", estimateBody(t, wallTenants[0].spec))
	if legacy.Code != http.StatusOK || !bytes.Equal(legacy.Body.Bytes(), direct.Body.Bytes()) {
		t.Errorf("legacy alias diverges from /v1/t/%s (code %d)", wallTenants[0].id, legacy.Code)
	}
}

// newToyFleet builds a fleet of push-only tenants, each ingested with the
// same toy run and trained on Service/cpu — the cheap fixture the stress,
// fairness, and lifecycle tests share.
func newToyFleet(t testing.TB, cfg Config, ids ...string) (*Fleet, http.Handler) {
	t.Helper()
	if cfg.Opts.Estimator.Hidden == 0 {
		cfg.Opts = quickOpts()
	}
	fl := New(cfg)
	t.Cleanup(fl.Close)
	h := fl.Handler()
	for i, id := range ids {
		if _, err := fl.Create(TenantSpec{App: id}); err != nil {
			t.Fatalf("create %s: %v", id, err)
		}
		if rec := do(t, h, "POST", "/v1/t/"+id+"/v1/telemetry", toyBody(t, 1, 30, int64(51+i))); rec.Code != http.StatusOK {
			t.Fatalf("ingest %s = %d: %s", id, rec.Code, rec.Body)
		}
		if rec := do(t, h, "POST", "/v1/t/"+id+"/v1/learn", bytes.NewBufferString(`{"pairs":["Service/cpu"]}`)); rec.Code != http.StatusOK {
			t.Fatalf("learn %s = %d: %s", id, rec.Code, rec.Body)
		}
	}
	return fl, h
}

// toyEstimate is the matching toy-mix estimate request.
func toyEstimate(t testing.TB) *bytes.Buffer {
	t.Helper()
	traffic := testutil.ToyProgram(1, 45, 99).Generate()
	body, err := json.Marshal(map[string]interface{}{
		"windows": traffic.Windows, "windows_per_day": traffic.WindowsPerDay,
	})
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewBuffer(body)
}

// TestTenantEvictionIsolation is the lifecycle property: however many
// tenants are created and retired around it, a resident tenant's estimates
// never change and its serving path never breaks — eviction frees only the
// evicted tenant's state. Exercised over several churn rounds with the
// surviving tenant queried between every step.
func TestTenantEvictionIsolation(t *testing.T) {
	fl, h := newToyFleet(t, Config{}, "keeper")
	baseline := do(t, h, "POST", "/v1/t/keeper/v1/estimate", toyEstimate(t))
	if baseline.Code != http.StatusOK {
		t.Fatalf("baseline estimate = %d: %s", baseline.Code, baseline.Body)
	}

	for round := 0; round < 4; round++ {
		id := fmt.Sprintf("churn%d", round)
		if _, err := fl.Create(TenantSpec{App: id}); err != nil {
			t.Fatal(err)
		}
		if rec := do(t, h, "POST", "/v1/t/"+id+"/v1/telemetry", toyBody(t, 1, 30, int64(70+round))); rec.Code != http.StatusOK {
			t.Fatalf("churn ingest = %d", rec.Code)
		}
		if rec := do(t, h, "POST", "/v1/t/"+id+"/v1/learn", bytes.NewBufferString(`{"pairs":["Service/cpu"]}`)); rec.Code != http.StatusOK {
			t.Fatalf("churn learn = %d: %s", rec.Code, rec.Body)
		}
		if rec := do(t, h, "DELETE", "/v1/tenants/"+id, nil); rec.Code != http.StatusOK {
			t.Fatalf("retire = %d: %s", rec.Code, rec.Body)
		}
		// The retired tenant's routes are gone...
		if rec := do(t, h, "GET", "/v1/t/"+id+"/v1/status", nil); rec.Code != http.StatusNotFound {
			t.Fatalf("retired tenant still routable: %d", rec.Code)
		}
		// ...and the keeper's estimates are bit-identical to before any
		// churn: eviction freed nothing the keeper owns.
		rec := do(t, h, "POST", "/v1/t/keeper/v1/estimate", toyEstimate(t))
		if rec.Code != http.StatusOK {
			t.Fatalf("round %d: keeper estimate = %d: %s", round, rec.Code, rec.Body)
		}
		if !bytes.Equal(rec.Body.Bytes(), baseline.Body.Bytes()) {
			t.Fatalf("round %d: keeper estimate changed after evicting %s", round, id)
		}
	}
	if got := len(fl.Tenants()); got != 1 {
		t.Fatalf("resident tenants = %d, want 1", got)
	}
}

// TestFleetLifecycleHTTP covers the management surface: create via POST,
// duplicate refused with 409, invalid id refused with 400, status document
// listing every tenant, retire via DELETE, unknown tenant 404, and the
// retired route aliases 404.
func TestFleetLifecycleHTTP(t *testing.T) {
	_, h := newToyFleet(t, Config{}, "alpha")

	rec := do(t, h, "POST", "/v1/tenants", bytes.NewBufferString(`{"app":"beta"}`))
	if rec.Code != http.StatusCreated {
		t.Fatalf("create = %d: %s", rec.Code, rec.Body)
	}
	// Result() holds the headers as they went out with the status line.
	if ct := rec.Result().Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("create Content-Type = %q, want application/json", ct)
	}
	if rec := do(t, h, "POST", "/v1/tenants", bytes.NewBufferString(`{"app":"beta"}`)); rec.Code != http.StatusConflict {
		t.Fatalf("duplicate create = %d", rec.Code)
	}
	for _, bad := range []string{`{"app":"../evil"}`, `{"app":""}`, `{"app":"a/b"}`, `{"app":"x","nope":1}`, `{"app":"x"}{"app":"y"}`} {
		if rec := do(t, h, "POST", "/v1/tenants", bytes.NewBufferString(bad)); rec.Code != http.StatusBadRequest {
			t.Fatalf("bad create %s = %d", bad, rec.Code)
		}
	}

	rec = do(t, h, "GET", "/v1/fleet", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("fleet status = %d", rec.Code)
	}
	var st FleetStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Tenants) != 2 || st.Default != "alpha" {
		t.Fatalf("fleet status = %+v", st)
	}
	if st.Tenants[0].App != "alpha" || st.Tenants[0].ActiveVersion != 1 {
		t.Fatalf("tenant row = %+v", st.Tenants[0])
	}
	// Each route has one path: the old aliases of /v1/fleet and /v1/estimate
	// are gone, on the fleet and on the default tenant behind it.
	if rec := do(t, h, "GET", "/v1/tenants", nil); rec.Code != http.StatusNotFound {
		t.Errorf("GET /v1/tenants = %d, want 404", rec.Code)
	}
	if rec := do(t, h, "POST", "/v1/predict", bytes.NewBufferString(`{"windows":[{"/read":1}]}`)); rec.Code != http.StatusNotFound {
		t.Errorf("POST /v1/predict = %d, want 404", rec.Code)
	}

	if rec := do(t, h, "DELETE", "/v1/tenants/beta", nil); rec.Code != http.StatusOK {
		t.Fatalf("retire = %d", rec.Code)
	}
	if rec := do(t, h, "DELETE", "/v1/tenants/beta", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("double retire = %d", rec.Code)
	}
	if rec := do(t, h, "GET", "/v1/t/nosuch/v1/status", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown tenant = %d", rec.Code)
	}
}

// TestCreateRefusesOutsideInput: POST /v1/tenants reads no file on the
// daemon's host (an @FILE spec is refused before anything is opened, so the
// answer says nothing about the path), refuses gen: sizes past the
// generator's bound, and answers 413 to a body past its bound.
func TestCreateRefusesOutsideInput(t *testing.T) {
	fl := New(Config{Opts: quickOpts()})
	t.Cleanup(fl.Close)
	h := fl.Handler()
	for _, tc := range []struct {
		body string
		code int
	}{
		{`{"app":"a","spec":"@/nonexistent/x"}`, http.StatusBadRequest},
		{`{"app":"a","spec":"@` + os.TempDir() + `"}`, http.StatusBadRequest},
		{`{"app":"a","spec":"@fleet_test.go"}`, http.StatusBadRequest},
		{`{"app":"a","spec":"gen:seed=1,components=30000"}`, http.StatusBadRequest},
		{`{"app":"a","spec":"gen:components=10,apis=9223372036854775807"}`, http.StatusBadRequest},
		{`{"app":"a","spec":"` + strings.Repeat("x", maxCreateBytes) + `"}`, http.StatusRequestEntityTooLarge},
		{`{"app":"ok","spec":"gen:seed=8,components=10"}`, http.StatusCreated},
	} {
		rec := do(t, h, "POST", "/v1/tenants", bytes.NewBufferString(tc.body))
		if rec.Code != tc.code {
			t.Errorf("create %.60s = %d, want %d: %s", tc.body, rec.Code, tc.code, rec.Body)
		}
		for _, leak := range []string{"no such file", "is a directory", "invalid character"} {
			if strings.Contains(rec.Body.String(), leak) {
				t.Errorf("create %.60s answers %q: it read the host's file", tc.body, rec.Body)
			}
		}
	}
	if ts := fl.Tenants(); len(ts) != 1 || ts[0].ID != "ok" {
		t.Errorf("%d tenant(s) resident, want only the valid one", len(ts))
	}
}

// TestFleetCapacityBound: creation beyond MaxTenants is shed with 503 and a
// Retry-After, and retiring a tenant frees the slot.
func TestFleetCapacityBound(t *testing.T) {
	fl, h := newToyFleet(t, Config{MaxTenants: 1}, "only")
	rec := do(t, h, "POST", "/v1/tenants", bytes.NewBufferString(`{"app":"over"}`))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity create = %d", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("over-capacity shed carries no Retry-After")
	}
	if err := fl.Retire("only"); err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Create(TenantSpec{App: "over"}); err != nil {
		t.Fatalf("create after retire: %v", err)
	}
}

// TestManifestParsing pins the strict manifest grammar.
func TestManifestParsing(t *testing.T) {
	good := `{"tenants":[
		{"app":"social","spec":"social","bootstrap_days":2},
		{"app":"synth-60","spec":"gen:seed=9,components=60","retention":2880}
	]}`
	m, err := ParseManifest(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Tenants) != 2 || m.Tenants[1].Retention != 2880 {
		t.Fatalf("manifest = %+v", m)
	}

	for name, doc := range map[string]string{
		"empty":        `{"tenants":[]}`,
		"no doc":       ``,
		"unknown key":  `{"tenants":[{"app":"a","color":"red"}]}`,
		"duplicate id": `{"tenants":[{"app":"a"},{"app":"a"}]}`,
		"traversal":    `{"tenants":[{"app":"../../etc"}]}`,
		"separator":    `{"tenants":[{"app":"a/b"}]}`,
		"dot":          `{"tenants":[{"app":"a.b"}]}`,
		"leading dash": `{"tenants":[{"app":"-a"}]}`,
		"days range":   `{"tenants":[{"app":"a","bootstrap_days":99}]}`,
		"trailing":     `{"tenants":[{"app":"a"}]} {}`,
	} {
		if _, err := ParseManifest(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: manifest accepted: %s", name, doc)
		}
	}
}

// TestValidateID pins the id grammar at the unit level.
func TestValidateID(t *testing.T) {
	for _, ok := range []string{"a", "social", "A-1_b", "x" + strings.Repeat("y", 63)} {
		if err := ValidateID(ok); err != nil {
			t.Errorf("ValidateID(%q) = %v", ok, err)
		}
	}
	for _, bad := range []string{"", "..", ".", "a.b", "a/b", `a\b`, "-a", "_a",
		"a b", "a\x00b", "über", "x" + strings.Repeat("y", 64)} {
		if err := ValidateID(bad); err == nil {
			t.Errorf("ValidateID(%q) accepted", bad)
		}
	}
}

// TestRestartServesIdenticalEstimates: a tenant with a spec that is trained,
// checkpointed and created again over the same checkpoint dir (a daemon
// restart) answers /v1/estimate byte for byte as before — the recovered
// model's synthesizer is re-learned from the bootstrap telemetry, which
// therefore has to be in the store before recovery runs.
func TestRestartServesIdenticalEstimates(t *testing.T) {
	pcfg := pipeline.DefaultConfig()
	pcfg.CheckpointDir = t.TempDir()
	boot := func() (*Fleet, http.Handler) {
		fl := New(Config{Opts: quickOpts(), Pipeline: pcfg})
		t.Cleanup(fl.Close)
		if _, err := fl.Create(TenantSpec{App: "shop", Spec: "social"}); err != nil {
			t.Fatal(err)
		}
		return fl, fl.Handler()
	}
	_, h := boot()
	if rec := do(t, h, "POST", "/v1/t/shop/v1/learn", bytes.NewBufferString(`{"pairs":["UserService/cpu"]}`)); rec.Code != http.StatusOK {
		t.Fatalf("learn = %d: %s", rec.Code, rec.Body)
	}
	before := do(t, h, "POST", "/v1/t/shop/v1/estimate", estimateBody(t, "social"))
	if before.Code != http.StatusOK {
		t.Fatalf("estimate = %d: %s", before.Code, before.Body)
	}

	fl2, h2 := boot()
	tn, _ := fl2.Get("shop")
	if got := tn.Server().Pipeline().Status().ActiveVersion; got != 1 {
		t.Fatalf("recovered version = %d, want 1", got)
	}
	after := do(t, h2, "POST", "/v1/t/shop/v1/estimate", estimateBody(t, "social"))
	if after.Code != http.StatusOK {
		t.Fatalf("estimate after restart = %d: %s", after.Code, after.Body)
	}
	if !bytes.Equal(before.Body.Bytes(), after.Body.Bytes()) {
		t.Error("estimate after restart differs from the one before it")
	}
}

// TestCreateOverUnreadableCheckpointIs500: a tenant whose only checkpoint
// cannot be read fails on the daemon's side, not in the request: 500 naming
// the file. Recovery quarantined it, so a retry starts the tenant cold.
func TestCreateOverUnreadableCheckpointIs500(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "a"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "a", "gen-000001.ckpt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	pcfg := pipeline.DefaultConfig()
	pcfg.CheckpointDir = dir
	fl := New(Config{Opts: quickOpts(), Pipeline: pcfg})
	t.Cleanup(fl.Close)
	h := fl.Handler()
	rec := do(t, h, "POST", "/v1/tenants", bytes.NewBufferString(`{"app":"a"}`))
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "gen-000001.ckpt") {
		t.Fatalf("create over an unreadable checkpoint = %d %s, want 500 naming the file", rec.Code, rec.Body)
	}
	if rec := do(t, h, "POST", "/v1/tenants", bytes.NewBufferString(`{"app":"a"}`)); rec.Code != http.StatusCreated {
		t.Fatalf("retry = %d %s, want 201", rec.Code, rec.Body)
	}
	if _, err := os.Stat(filepath.Join(dir, "a", "gen-000001.ckpt.corrupt")); err != nil {
		t.Errorf("the unreadable checkpoint was not quarantined: %v", err)
	}
	if st := do(t, h, "GET", "/v1/t/a/v1/models", nil); st.Code != http.StatusOK || strings.Contains(st.Body.String(), `"version"`) {
		t.Errorf("the retried tenant is not cold: %d %s", st.Code, st.Body)
	}
}

// TestCreateRefusesStrayCheckpointsAndBadBounds: Create itself enforces the
// spec bounds, and refuses a checkpoint root that holds un-nested
// checkpoints (the pre-fleet single-app layout) instead of starting cold
// beside them.
func TestCreateRefusesStrayCheckpointsAndBadBounds(t *testing.T) {
	dir := t.TempDir()
	pcfg := pipeline.DefaultConfig()
	pcfg.CheckpointDir = dir
	fl := New(Config{Opts: quickOpts(), Pipeline: pcfg})
	t.Cleanup(fl.Close)
	if _, err := fl.Create(TenantSpec{App: "a", Spec: "social", BootstrapDays: 1000}); err == nil {
		t.Error("Create accepted bootstrap_days 1000")
	}
	if err := os.WriteFile(filepath.Join(dir, "gen-000001.ckpt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := fl.Create(TenantSpec{App: "default"})
	if err == nil || !strings.Contains(err.Error(), "mv "+filepath.Join(dir, "gen-*.ckpt")) {
		t.Errorf("Create over a root with a stray checkpoint: err = %v, want a refusal naming the mv", err)
	}
	if len(fl.Tenants()) != 0 {
		t.Errorf("a refused create left %d tenant(s) resident", len(fl.Tenants()))
	}
}
