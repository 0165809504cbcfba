// Package fleet shards many DeepRest applications behind one daemon — the
// deployment the ROADMAP calls fleet serving and Sinan exemplifies for
// data-driven resource management run as shared cloud infrastructure: a
// production estimator serves hundreds of tenants, each with its own
// telemetry stream, model generations, and quality scoreboard, while the
// expensive machinery (training workers, inference pool, metrics registry)
// is shared and bounded.
//
// Ownership model — everything a tenant touches is owned by that tenant:
//
//   - each Tenant wraps one service.Server, which owns its telemetry ring,
//     per-generation feature cache, model registry, shadow scorer and
//     estimate table; no per-tenant state is reachable from another
//     tenant, so retiring a tenant can never free a neighbour's rings or
//     inference engine;
//   - shared process-wide resources are explicitly label-partitioned: the
//     metrics registry hands each tenant a constant-`app`-labelled view
//     (obs.Registry.WithConstLabels), the span tracer stamps each tenant's
//     spans (obs.SpanTracer.WithApp), and checkpoints live under
//     <dir>/<tenant>/ with tenant ids validated against path traversal;
//   - training is funnelled through one bounded worker pool driven by a
//     fair round-robin scheduler (see scheduler.go) instead of N background
//     retrain goroutines, and each tenant's own admission middleware
//     (service.Config: ingest token bucket → 429, in-flight bound → 503)
//     sheds a flooding tenant while quiet tenants keep their cadence.
//
// Locking model: Fleet.mu guards only the tenant table (create, lookup,
// retire); it is never held across training, bootstrap simulation, or
// request handling. Tenant liveness is an atomic flag so the scheduler and
// router skip retired tenants without locks, and the at-most-one-queued
// training claim per tenant is an atomic compare-and-swap, mirroring the
// inference pool's claim discipline.
package fleet

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workload"
)

// Config assembles a fleet. Opts and Pipeline are templates: every tenant
// gets a copy with its observability handles re-scoped (metrics view, span
// tag, logger attribute) and its checkpoint directory nested under the
// fleet's.
type Config struct {
	// Opts are the base learning options. Metrics, Tracer, and Logger are
	// per-tenant re-scoped; everything else applies to every tenant.
	Opts core.Options
	// Pipeline is the per-tenant continuous-learning template. A non-empty
	// CheckpointDir is the fleet base directory: every tenant's checkpoints
	// land in CheckpointDir/<tenant>/gen-*.ckpt, and a base directory that
	// holds gen-*.ckpt files itself (the layout of a pre-fleet single-app
	// daemon) is refused at tenant creation.
	Pipeline pipeline.Config
	// MaxTenants bounds resident tenants (0 = 64). Creation beyond the
	// bound is refused with 503.
	MaxTenants int
	// TrainWorkers sizes the shared training worker pool the scheduler
	// dispatches retrain/drift ticks onto (0 = 2).
	TrainWorkers int
	// MaxInflight bounds each tenant's concurrently admitted requests
	// (excess shed with 503 + Retry-After); 0 disables. A TenantSpec may
	// override it per tenant.
	MaxInflight int
	// IngestRate and IngestBurst arm the per-tenant ingest token bucket:
	// at most IngestRate POST /v1/telemetry requests per second sustained,
	// IngestBurst in a burst, beyond which ingest is shed with 429 +
	// Retry-After. Rate 0 disables. Burst 0 defaults to max(2*rate, 4).
	IngestRate  float64
	IngestBurst int
	// RequestTimeout, Retention, QualityHorizon, QualityThreshold mirror the
	// service.Config fields and apply to every tenant (Retention overridable
	// per TenantSpec).
	RequestTimeout   time.Duration
	Retention        int
	QualityHorizon   time.Duration
	QualityThreshold float64
}

// TenantSpec declares one tenant — the POST /v1/tenants body and the fleet
// manifest entry.
type TenantSpec struct {
	// App is the tenant id: 1–64 characters of [a-zA-Z0-9_-], starting
	// alphanumeric. It names the tenant in URLs (/v1/t/<app>/...), metric
	// labels (app="..."), and the checkpoint directory, so the grammar
	// deliberately excludes every path separator and dot.
	App string `json:"app"`
	// Spec optionally bootstraps the tenant's telemetry from a simulated
	// deployment: social|hotel|media, @file.json, or gen:seed=N,components=N
	// (topo.Resolve grammar). @file.json is for the operator's manifest and
	// -app flag only: POST /v1/tenants refuses it with 400, as it would read
	// the daemon host's files. Empty creates the tenant with an empty store
	// awaiting pushed telemetry.
	Spec string `json:"spec,omitempty"`
	// BootstrapDays sizes the simulated bootstrap (Spec only; 0 = 1 day).
	BootstrapDays int `json:"bootstrap_days,omitempty"`
	// Retention overrides the fleet's telemetry retention horizon.
	Retention int `json:"retention,omitempty"`
	// MaxInflight overrides the fleet's per-tenant admission bound.
	MaxInflight int `json:"max_inflight,omitempty"`
}

// Tenant is one resident application: its service instance plus the fleet's
// scheduling state for it.
type Tenant struct {
	// ID is the validated tenant id.
	ID string
	// Spec records the topology argument that bootstrapped the tenant ("" =
	// push-only).
	Spec string
	// CreatedAt stamps tenant creation.
	CreatedAt time.Time

	srv *service.Server

	retired atomic.Bool
	// trainPending is the atomic claim guaranteeing at most one queued or
	// running training tick per tenant on the shared pool.
	trainPending atomic.Bool
	// nextRetrain/nextDrift are the scheduler's deadlines; only the
	// scheduler goroutine reads or writes them.
	nextRetrain, nextDrift time.Time
}

// Server exposes the tenant's service instance (tests and the fleet status
// endpoint read through it).
func (t *Tenant) Server() *service.Server { return t.srv }

// Fleet is the tenant registry plus shared scheduler.
type Fleet struct {
	cfg Config

	mu      sync.RWMutex
	tenants map[string]*Tenant
	order   []*Tenant // creation order, drives round-robin fairness
	pending map[string]bool
	deflt   string // tenant aliased by legacy un-prefixed routes
	closed  bool
	sched   *scheduler

	tenantsGauge *obs.Gauge
	tenantOps    *obs.CounterVec
}

// DefaultMaxTenants bounds the tenant table when Config.MaxTenants is 0.
const DefaultMaxTenants = 64

// New assembles an empty fleet. Call StartScheduler to begin continuous
// learning across tenants, Handler to serve it.
func New(cfg Config) *Fleet {
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = DefaultMaxTenants
	}
	if cfg.TrainWorkers <= 0 {
		cfg.TrainWorkers = 2
	}
	f := &Fleet{
		cfg:     cfg,
		tenants: make(map[string]*Tenant),
		pending: make(map[string]bool),
	}
	if m := cfg.Opts.Metrics; m != nil {
		f.tenantsGauge = m.Gauge("deeprest_fleet_tenants",
			"Tenants currently resident in the fleet.")
		f.tenantOps = m.CounterVec("deeprest_fleet_tenant_ops_total",
			"Fleet tenant lifecycle operations by kind (create, retire) and result (ok, error).",
			"op", "result")
	}
	return f
}

// Create registers one tenant, optionally bootstrapping its telemetry from
// a simulated deployment and recovering its checkpoints. The fleet lock is
// never held across the (slow) bootstrap simulation: the id is reserved
// first, so concurrent creates of the same id fail fast with ErrDuplicate.
func (f *Fleet) Create(ts TenantSpec) (*Tenant, error) {
	err := ValidateID(ts.App)
	if err == nil {
		err = validateSpecBounds(&ts)
	}
	if err != nil {
		f.tenantOps.With("create", "error").Inc()
		return nil, err
	}
	if err := f.reserve(ts.App); err != nil {
		f.tenantOps.With("create", "error").Inc()
		return nil, err
	}
	t, err := f.build(ts)
	f.mu.Lock()
	delete(f.pending, ts.App)
	if err == nil {
		f.tenants[ts.App] = t
		f.order = append(f.order, t)
		if f.deflt == "" {
			f.deflt = ts.App
		}
		f.tenantsGauge.Set(float64(len(f.tenants)))
	}
	f.mu.Unlock()
	if err != nil {
		f.tenantOps.With("create", "error").Inc()
		return nil, err
	}
	f.tenantOps.With("create", "ok").Inc()
	return t, nil
}

// ErrDuplicate reports a create against an id that is already resident (or
// mid-creation).
var ErrDuplicate = fmt.Errorf("fleet: tenant id already exists")

// ErrAtCapacity reports a create beyond the MaxTenants bound.
var ErrAtCapacity = fmt.Errorf("fleet: tenant capacity reached")

// ErrSetup reports a create that failed on the daemon's side, not in the
// request: a checkpoint root in the single-app layout, a service that
// could not be built or bootstrapped, a recovery with no readable
// checkpoint.
var ErrSetup = fmt.Errorf("fleet: tenant setup failed")

// ErrClosed reports a create on a fleet that is shutting down.
var ErrClosed = fmt.Errorf("fleet: closed")

// reserve claims an id slot under the lock so the slow build runs unlocked.
func (f *Fleet) reserve(id string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if _, ok := f.tenants[id]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicate, id)
	}
	if f.pending[id] {
		return fmt.Errorf("%w: %q (creation in flight)", ErrDuplicate, id)
	}
	if len(f.tenants)+len(f.pending) >= f.cfg.MaxTenants {
		return fmt.Errorf("%w (%d resident)", ErrAtCapacity, len(f.tenants))
	}
	f.pending[id] = true
	return nil
}

// build constructs the tenant's service instance: re-scoped observability,
// nested checkpoint dir, optional simulated bootstrap, checkpoint recovery.
func (f *Fleet) build(ts TenantSpec) (*Tenant, error) {
	opts := f.cfg.Opts
	if opts.Metrics != nil {
		opts.Metrics = opts.Metrics.WithConstLabels("app", ts.App)
	}
	opts.Tracer = opts.Tracer.WithApp(ts.App)
	if opts.Logger != nil {
		opts.Logger = opts.Logger.With("app", ts.App)
	}
	pcfg := f.cfg.Pipeline
	if root := pcfg.CheckpointDir; root != "" {
		// Checkpoints written straight into the root belong to no tenant;
		// starting cold beside them would silently drop a trained model.
		glob := filepath.Join(root, "gen-*.ckpt")
		if stray, _ := filepath.Glob(glob); len(stray) > 0 {
			adopt := filepath.Join(root, "default")
			return nil, fmt.Errorf("%w: checkpoint dir %s holds %d un-nested gen-*.ckpt file(s) (the single-app layout); "+
				"tenants checkpoint under <dir>/<tenant>/ — move them first: mkdir -p %s && mv %s %s/",
				ErrSetup, root, len(stray), adopt, glob, adopt)
		}
		// ValidateID excluded separators and dots, so this join can never
		// escape the fleet's checkpoint root.
		pcfg.CheckpointDir = filepath.Join(root, ts.App)
	}
	scfg := service.Config{
		MaxInflight:      f.cfg.MaxInflight,
		IngestRate:       f.cfg.IngestRate,
		IngestBurst:      f.cfg.IngestBurst,
		RequestTimeout:   f.cfg.RequestTimeout,
		Retention:        f.cfg.Retention,
		QualityHorizon:   f.cfg.QualityHorizon,
		QualityThreshold: f.cfg.QualityThreshold,
	}
	if ts.MaxInflight > 0 {
		scfg.MaxInflight = ts.MaxInflight
	}
	if ts.Retention > 0 {
		scfg.Retention = ts.Retention
	}
	srv, err := service.New(opts, pcfg, scfg)
	if err != nil {
		return nil, fmt.Errorf("%w: tenant %q: %w", ErrSetup, ts.App, err)
	}
	// Bootstrap before recovery: a recovered model's trace synthesizer is
	// re-learned from the windows the store holds at that moment.
	if ts.Spec != "" {
		run, err := BootstrapRun(ts.Spec, ts.BootstrapDays)
		if err != nil {
			return nil, fmt.Errorf("fleet: tenant %q: bootstrap: %w", ts.App, err)
		}
		if err := srv.Bootstrap(run); err != nil {
			return nil, fmt.Errorf("%w: tenant %q: %w", ErrSetup, ts.App, err)
		}
	}
	if pcfg.CheckpointDir != "" {
		if _, err := srv.Pipeline().Recover(); err != nil {
			return nil, fmt.Errorf("%w: tenant %q: recover: %w", ErrSetup, ts.App, err)
		}
	}
	return &Tenant{ID: ts.App, Spec: ts.Spec, CreatedAt: time.Now(), srv: srv}, nil
}

// Get returns a resident tenant.
func (f *Fleet) Get(id string) (*Tenant, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	t, ok := f.tenants[id]
	return t, ok
}

// Default returns the tenant aliased by legacy un-prefixed routes: the
// first created, and after that one is retired the next one created; nil
// when none.
func (f *Fleet) Default() *Tenant {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.tenants[f.deflt]
}

// TrainWorkers reports the resolved size of the shared training pool.
func (f *Fleet) TrainWorkers() int { return f.cfg.TrainWorkers }

// Tenants snapshots the resident tenants in creation order.
func (f *Fleet) Tenants() []*Tenant {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]*Tenant, len(f.order))
	copy(out, f.order)
	return out
}

// Retire removes a tenant. In-flight requests finish on the generation they
// hold; everything the tenant owned — inference engines included — becomes
// unreachable and is reclaimed by GC. Other tenants are untouched — they own
// their state outright.
func (f *Fleet) Retire(id string) error {
	f.mu.Lock()
	t, ok := f.tenants[id]
	if !ok {
		f.mu.Unlock()
		f.tenantOps.With("retire", "error").Inc()
		return fmt.Errorf("fleet: no tenant %q", id)
	}
	delete(f.tenants, id)
	for i, o := range f.order {
		if o == t {
			f.order = append(f.order[:i], f.order[i+1:]...)
			break
		}
	}
	if f.deflt == id {
		f.deflt = ""
	}
	f.tenantsGauge.Set(float64(len(f.tenants)))
	f.mu.Unlock()
	t.retired.Store(true)
	f.tenantOps.With("retire", "ok").Inc()
	return nil
}

// Close stops the scheduler. Tenants stay resident (a closing daemon only
// needs training to stop; queries drain through the HTTP server's own
// shutdown).
func (f *Fleet) Close() {
	f.mu.Lock()
	f.closed = true
	sched := f.sched
	f.sched = nil
	f.mu.Unlock()
	if sched != nil {
		sched.stop()
	}
}

// BootstrapRun simulates a learning period for a tenant bootstrap: diurnal
// two-peak traffic over the requested days against the resolved topology, at
// the quick scale with the same seeds for every tenant (those of `deeprest
// export -quick -seed 1`), so a tenant bootstrapped from spec S holds
// bit-identical telemetry in every fleet and across restarts.
func BootstrapRun(spec string, days int) (*sim.Run, error) {
	if days < 1 {
		days = 1
	}
	appSpec, mix, err := topo.Resolve(spec)
	if err != nil {
		return nil, err
	}
	wpd, ws, _, peak := workload.Scale(true)
	prog := workload.Uniform(days, workload.DaySpec{Shape: workload.TwoPeak{}, Mix: mix, PeakRPS: peak})
	prog.WindowsPerDay = wpd
	prog.WindowSeconds = ws
	prog.Seed = 301
	_, _, run, err := sim.Simulate(appSpec, prog, 101, nil)
	return run, err
}
