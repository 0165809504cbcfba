package fleet

import (
	"bytes"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestMetricsScrapeFleet is the multi-tenant counterpart of the service
// package's TestMetricsScrape: boot a fleet, drive every tenant through
// ingest + learn + estimate, then validate the single shared /metrics
// exposition against the Prometheus text-format grammar (obs.Lint) and
// check the app label partitions every per-tenant family while
// process-level families stay unlabelled. The app label is exactly the
// kind of change that corrupts an exposition — mixed label sets within a
// family, duplicate series, reordered label values — which is what the
// lint pass catches.
func TestMetricsScrapeFleet(t *testing.T) {
	opts := quickOpts()
	opts.Metrics = obs.NewRegistry()
	opts.Tracer = obs.NewSpanTracer(128, 7)
	fl, h := newToyFleet(t, Config{Opts: opts, IngestRate: 1000}, "north", "south")
	// A tenant nothing was ever pushed to: its store's series exist from
	// creation, at 0.
	if _, err := fl.Create(TenantSpec{App: "idle"}); err != nil {
		t.Fatal(err)
	}

	for _, id := range []string{"north", "south"} {
		if rec := do(t, h, "POST", "/v1/t/"+id+"/v1/estimate", toyEstimate(t)); rec.Code != http.StatusOK {
			t.Fatalf("estimate %s = %d", id, rec.Code)
		}
		if rec := do(t, h, "GET", "/v1/t/"+id+"/v1/quality", nil); rec.Code != http.StatusOK {
			t.Fatalf("quality %s = %d", id, rec.Code)
		}
	}
	// An unroutable tenant request and a fleet status read exercise the
	// fleet-level families too.
	do(t, h, "GET", "/v1/t/nosuch/v1/status", nil)
	do(t, h, "GET", "/v1/fleet", nil)

	rec := do(t, h, "GET", "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rec.Code)
	}
	body := rec.Body.String()
	if err := obs.Lint(strings.NewReader(body)); err != nil {
		t.Fatalf("multi-tenant exposition fails Prometheus grammar: %v\n%s", err, body)
	}

	for _, want := range []string{
		// Per-tenant families carry app as the leading label, one series
		// per tenant in the same family.
		`deeprest_http_requests_total{app="north",endpoint="/v1/learn",code="200"}`,
		`deeprest_http_requests_total{app="south",endpoint="/v1/learn",code="200"}`,
		`deeprest_http_request_duration_seconds_bucket{app="north",endpoint="/v1/estimate",le="+Inf"}`,
		`deeprest_train_epochs_total{app="south",phase="train"}`,
		`deeprest_active_generation{app="north"} 1`,
		`deeprest_quality_smape{app="south",component="Service",resource="cpu"}`,
		`deeprest_telemetry_windows_total{app="idle"} 0`,
		`deeprest_telemetry_spans_total{app="idle"} 0`,
		`deeprest_telemetry_requests_total{app="idle"} 0`,
		`deeprest_telemetry_evicted_total{app="idle"} 0`,
		`deeprest_telemetry_resident_windows{app="idle"} 0`,
		`deeprest_telemetry_feature_extractions_total{app="idle"} 0`,
		`deeprest_estimate_cache_bytes{app="idle"} 0`,
		`deeprest_estimate_cache_bytes{app="north"} `,
		`deeprest_estimate_cache_bytes{app="south"} `,
		// Fleet-level families.
		"deeprest_fleet_tenants 3",
		`deeprest_fleet_tenant_ops_total{op="create",result="ok"} 3`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("fleet scrape is missing %q", want)
		}
	}
	// Build identity is per-process: exactly one series, no app label.
	if !strings.Contains(body, `deeprest_build_info{version=`) {
		t.Error("fleet scrape is missing deeprest_build_info")
	}
	if strings.Contains(body, `deeprest_build_info{app=`) {
		t.Error("deeprest_build_info leaked a tenant label")
	}

	// Spans are stamped per tenant and filterable at /debug/spans?app=.
	snap := opts.Tracer.Snapshot()
	apps := map[string]bool{}
	for _, s := range snap {
		apps[s.App] = true
	}
	if !apps["north"] || !apps["south"] {
		t.Errorf("span ring lacks per-tenant stamps: %v", apps)
	}
	srec := do(t, opts.Tracer.Handler(), "GET", "/debug/spans?app=north", nil)
	if srec.Code != http.StatusOK || bytes.Contains(srec.Body.Bytes(), []byte(`"app":"south"`)) {
		t.Errorf("span filter leaked another tenant's spans (code %d)", srec.Code)
	}
}
