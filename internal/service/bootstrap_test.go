package service

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/testutil"
)

// TestBootstrapSeedsStore checks Bootstrap appends a simulated run to the
// telemetry store, that later runs append after it, and that a mismatched
// window duration is rejected whole.
func TestBootstrapSeedsStore(t *testing.T) {
	svc := newTestService()
	_, _, run := testutil.ToyTelemetry(t, 1, 30, 1)
	if err := svc.Bootstrap(run); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	h := svc.Handler()

	rec := do(t, h, "GET", "/v1/status", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var st statusResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Windows != len(run.Windows) {
		t.Fatalf("status windows = %d, want %d", st.Windows, len(run.Windows))
	}

	// A second bootstrap with the same geometry appends.
	_, _, run2 := testutil.ToyTelemetry(t, 1, 30, 2)
	if err := svc.Bootstrap(run2); err != nil {
		t.Fatalf("second Bootstrap: %v", err)
	}
	rec = do(t, h, "GET", "/v1/status", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Windows != len(run.Windows)+len(run2.Windows) {
		t.Fatalf("after append windows = %d, want %d", st.Windows, len(run.Windows)+len(run2.Windows))
	}

	// A run with a different window duration must be rejected.
	bad := run2
	badCopy := *bad
	badCopy.WindowSeconds = run.WindowSeconds * 2
	if err := svc.Bootstrap(&badCopy); err == nil {
		t.Fatal("Bootstrap accepted a mismatched window duration")
	}
	if got := svc.Windows(); got != st.Windows {
		t.Fatalf("a refused bootstrap left %d windows, want %d", got, st.Windows)
	}

	if err := svc.Bootstrap(nil); err == nil {
		t.Fatal("Bootstrap accepted a nil run")
	}
}
