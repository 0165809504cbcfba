package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"
)

// HTTP surface of the fleet. Tenant traffic is path-sharded:
//
//	POST   /v1/tenants          create a tenant (TenantSpec body)
//	GET    /v1/fleet            fleet-wide status, one entry per tenant
//	DELETE /v1/tenants/{app}    retire a tenant
//	ANY    /v1/t/{app}/...      the tenant's full service API (prefix-stripped)
//	ANY    /...                 legacy single-app routes, aliased to the
//	                            default tenant so pre-fleet clients keep working
//
// This layer only routes. Admission (ingest token bucket → 429, in-flight
// bound → 503) is the tenant's own middleware inside service.Server, counted
// in that tenant's deeprest_http_shed_total{app,reason}.

type fleetError struct {
	Error string `json:"error"`
}

func writeErr(w http.ResponseWriter, code int, format string, args ...interface{}) {
	writeJSON(w, code, fleetError{Error: fmt.Sprintf(format, args...)})
}

// writeJSON sets the content type before the status line goes out: a header
// set after WriteHeader is dropped.
func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// Handler returns the fleet's HTTP surface.
func (f *Fleet) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/tenants", f.handleCreate)
	mux.HandleFunc("GET /v1/fleet", f.handleStatus)
	mux.HandleFunc("DELETE /v1/tenants/{app}", f.handleRetire)
	mux.HandleFunc("/v1/t/{app}/", f.handleTenant)
	if m := f.cfg.Opts.Metrics; m != nil {
		// One scrape covers the whole fleet: tenant views share the family
		// store, so the root handler renders every app="..." series.
		mux.Handle("GET /metrics", m.Handler())
	}
	mux.HandleFunc("/", f.handleDefault)
	return mux
}

// handleTenant routes /v1/t/{app}/... into the tenant's own service handler
// with the prefix stripped.
func (f *Fleet) handleTenant(w http.ResponseWriter, r *http.Request) {
	app := r.PathValue("app")
	t, ok := f.Get(app)
	if !ok {
		writeErr(w, http.StatusNotFound, "no tenant %q", app)
		return
	}
	f.serveTenant(t, "/v1/t/"+app, w, r)
}

// handleDefault aliases the legacy un-prefixed service routes onto the
// default tenant, preserving the single-app daemon's wire surface.
func (f *Fleet) handleDefault(w http.ResponseWriter, r *http.Request) {
	t := f.Default()
	if t == nil {
		writeErr(w, http.StatusNotFound,
			"no default tenant; create one via POST /v1/tenants or address a tenant at /v1/t/{app}/...")
		return
	}
	f.serveTenant(t, "", w, r)
}

func (f *Fleet) serveTenant(t *Tenant, prefix string, w http.ResponseWriter, r *http.Request) {
	if t.retired.Load() {
		writeErr(w, http.StatusNotFound, "tenant %q retired", t.ID)
		return
	}
	// StripPrefix with an empty prefix serves the request unchanged.
	http.StripPrefix(prefix, t.srv.Handler()).ServeHTTP(w, r)
}

// maxCreateBytes bounds a POST /v1/tenants body (413 beyond it); a
// TenantSpec is a handful of short fields.
const maxCreateBytes = 64 << 10

// handleCreate registers a tenant from a TenantSpec body. The decoder is as
// strict as the manifest parser: unknown fields are rejected. A remote client
// may not name a file on the daemon's host, so an @FILE spec is refused.
// An error in the request (id, bounds, spec) is 400; one on the daemon's
// side (ErrSetup) is 500; a fleet at capacity or shutting down is 503.
func (f *Fleet) handleCreate(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxCreateBytes))
	dec.DisallowUnknownFields()
	var ts TenantSpec
	if err := dec.Decode(&ts); err != nil {
		code := http.StatusBadRequest
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeErr(w, code, "decode tenant spec: %v", err)
		return
	}
	if dec.More() {
		writeErr(w, http.StatusBadRequest, "decode tenant spec: trailing data after the spec")
		return
	}
	if strings.HasPrefix(ts.Spec, "@") {
		writeErr(w, http.StatusBadRequest, "spec: @FILE is read only from the daemon's -fleet manifest or -app flag")
		return
	}
	t, err := f.Create(ts)
	if err != nil {
		switch {
		case errors.Is(err, ErrDuplicate):
			writeErr(w, http.StatusConflict, "%v", err)
		case errors.Is(err, ErrAtCapacity):
			w.Header().Set("Retry-After", "60")
			writeErr(w, http.StatusServiceUnavailable, "%v", err)
		case errors.Is(err, ErrClosed):
			writeErr(w, http.StatusServiceUnavailable, "%v", err)
		case errors.Is(err, ErrSetup):
			writeErr(w, http.StatusInternalServerError, "%v", err)
		default:
			writeErr(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	writeJSON(w, http.StatusCreated, f.tenantStatus(t))
}

// handleRetire removes a tenant.
func (f *Fleet) handleRetire(w http.ResponseWriter, r *http.Request) {
	app := r.PathValue("app")
	if err := f.Retire(app); err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"retired": app})
}

// TenantStatus is one tenant's row in the GET /v1/fleet document.
type TenantStatus struct {
	App           string    `json:"app"`
	Spec          string    `json:"spec,omitempty"`
	CreatedAt     time.Time `json:"created_at"`
	Windows       int       `json:"windows"`
	ActiveVersion int       `json:"active_version"`
	Generations   int       `json:"generations"`
	Degraded      bool      `json:"degraded,omitempty"`
	Shed          uint64    `json:"shed_total,omitempty"`
}

// FleetStatus is the GET /v1/fleet document.
type FleetStatus struct {
	Tenants      []TenantStatus `json:"tenants"`
	Default      string         `json:"default_tenant,omitempty"`
	TrainWorkers int            `json:"train_workers"`
	Scheduler    bool           `json:"scheduler_running"`
}

func (f *Fleet) tenantStatus(t *Tenant) TenantStatus {
	st := t.srv.Pipeline().Status()
	return TenantStatus{
		App: t.ID, Spec: t.Spec, CreatedAt: t.CreatedAt,
		Windows:       t.srv.Windows(),
		ActiveVersion: st.ActiveVersion,
		Generations:   st.Generations,
		Degraded:      st.Degraded,
		Shed:          t.srv.ShedCount(),
	}
}

func (f *Fleet) handleStatus(w http.ResponseWriter, r *http.Request) {
	f.mu.RLock()
	tenants := make([]*Tenant, len(f.order))
	copy(tenants, f.order)
	deflt := f.deflt
	running := f.sched != nil
	f.mu.RUnlock()
	out := FleetStatus{
		Tenants:      make([]TenantStatus, 0, len(tenants)),
		Default:      deflt,
		TrainWorkers: f.cfg.TrainWorkers,
		Scheduler:    running,
	}
	for _, t := range tenants {
		out.Tenants = append(out.Tenants, f.tenantStatus(t))
	}
	writeJSON(w, http.StatusOK, out)
}

// validateSpecBounds applies the sanity bounds on a TenantSpec. Create
// enforces them for every caller; ParseManifest applies them too, so a bad
// manifest is refused before any tenant is built.
func validateSpecBounds(ts *TenantSpec) error {
	if ts.BootstrapDays < 0 || ts.BootstrapDays > 14 {
		return fmt.Errorf("fleet: tenant %q: bootstrap_days %d out of range [0,14]", ts.App, ts.BootstrapDays)
	}
	if ts.Retention < 0 {
		return fmt.Errorf("fleet: tenant %q: negative retention", ts.App)
	}
	if ts.MaxInflight < 0 {
		return fmt.Errorf("fleet: tenant %q: negative max_inflight", ts.App)
	}
	return nil
}
