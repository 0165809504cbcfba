// Command deeprestd runs DeepRest as a long-lived HTTP service — the
// deployment mode the paper envisions for on-premises clusters and clouds
// (§1). Telemetry adapters push windows to it, the operator triggers
// learning, and any tool can then query resource allocations or sanity
// checks over JSON.
//
//	deeprestd -addr :8080 [-app APP] [-bootstrap-days N] [-anonymize] [-salt S]
//	          [-fleet MANIFEST] [-train-workers N] [-max-tenants N]
//	          [-ingest-rate R] [-ingest-burst N]
//	          [-hidden N] [-epochs N]
//	          [-retrain-every D] [-window N] [-retention N] [-checkpoint-dir DIR]
//	          [-history N] [-max-inflight N] [-request-timeout D] [-fault-spec SPEC]
//	          [-quality-horizon D] [-quality-retrain-threshold PCT]
//	          [-log-level L] [-log-format text|json] [-pprof] [-debug-addr A]
//
// Every daemon is a fleet (internal/fleet): one tenant per application, each
// with its own telemetry store, model generations, and quality scoreboard,
// addressed at /v1/t/{app}/... Without -fleet there is one tenant, named
// "default"; the un-prefixed routes below alias the first tenant created, so
// single-app clients never see the prefix. With -app that tenant bootstraps
// its telemetry store from a simulated deployment of the named application
// before listening — APP is social|hotel|media, @FILE (a topology DSL
// document), or gen:seed=N,components=N for a generated topology — so
// `deeprestd -app gen:seed=7,components=60 -retrain-every 15m` is a
// self-contained demo of the full service against a production-scale
// topology; without it the tenant waits for pushed telemetry. -fleet adds
// the tenants its manifest declares (and then "default" exists only if -app
// asks for it). Tenants can also be created and retired at runtime via
// POST /v1/tenants and DELETE /v1/tenants/{app}; GET /v1/fleet reports
// per-tenant status.
//
// Tenant endpoints (see internal/service):
//
//	POST /v1/telemetry  POST /v1/learn  GET /v1/status
//	POST /v1/estimate   POST /v1/sanity GET /v1/influence  GET /v1/model
//	GET  /v1/pipeline/status
//	GET  /v1/models     POST /v1/models/{version}/activate
//	GET  /v1/quality    (shadow-scoring scoreboard: rolling error + calibration)
//	GET  /v1/autoscale/plan  GET /v1/version
//	GET  /metrics       (Prometheus text format; always on; one scrape covers
//	                    every tenant, each series labelled app="...")
//
// Training is shared: one bounded worker pool (-train-workers) driven by a
// fair round-robin scheduler runs every tenant's retrain and drift ticks,
// -ingest-rate/-ingest-burst shed a flooding tenant's telemetry with 429 +
// Retry-After, and -max-inflight bounds each tenant's concurrent requests
// (503). Checkpoints nest per tenant under -checkpoint-dir
// (DIR/<tenant>/gen-*.ckpt, "default" included; a DIR that still holds
// un-nested gen-*.ckpt files from an older single-app daemon is refused at
// start-up with the mv to run), and every stage span carries the tenant.
//
// -retrain-every arms that scheduler (GET /v1/fleet reports
// scheduler_running): every tenant retrains on fresh telemetry at that
// cadence (and early when the quality verdict trips), publishing each generation
// atomically while queries keep serving the previous one. With
// -checkpoint-dir every generation is checkpointed to disk and recovered at
// the next boot, so a restart comes back serving the exact model it went
// down with (a push-only tenant's telemetry is volatile: it answers Mode-2
// and status queries at once, Mode-1 estimates once the next generation is
// learned from re-pushed telemetry — /v1/learn, or the scheduler's next
// tick).
//
// Resilience: -max-inflight bounds admitted requests (excess is shed with
// 503 + Retry-After), -request-timeout puts a deadline on every request's
// context, and -fault-spec arms a deterministic control-plane fault schedule
// (injected retrain failures, checkpoint corruption) for resilience drills —
// while faults fire, queries keep serving the last good model generation.
//
// Prediction quality: the daemon shadow-scores the active model against
// ingested telemetry (internal/quality) on every drift tick and every
// GET /v1/quality, and serves the rolling scoreboard there plus
// deeprest_quality_* Prometheus series. -quality-horizon caps the longest
// rolling report horizon. The drift tick's verdict over the windows since
// the last training run retrains early (trigger "drift") on unknown
// invocation paths, collapsed interval coverage, or a mean sMAPE above
// -quality-retrain-threshold.
//
// Observability: the daemon self-instruments through internal/obs and
// serves the registry at GET /metrics on the main listener. Stage spans
// around ingest, extraction, scoring, training, checkpointing, and serving
// swaps are recorded in a fixed in-process ring and served at
// GET /debug/spans beside net/http/pprof under /debug/pprof/: -pprof mounts
// both on the main listener; -debug-addr starts a second, operator-only
// listener carrying them and /metrics, so profiling never has to face
// application clients. Logs are structured (log/slog) on stderr; -log-level
// and -log-format pick severity and text/json rendering. SIGINT or SIGTERM
// shut the daemon down gracefully: the training scheduler drains, then the
// listeners stop.
//
// A quick demo against a simulated deployment:
//
//	go run ./cmd/deeprest export -quick -o telemetry.json
//	go run ./cmd/deeprestd -addr :8080 -retrain-every 15m -checkpoint-dir ./ckpt &
//	curl --data-binary @telemetry.json localhost:8080/v1/telemetry
//	curl -X POST localhost:8080/v1/learn -d '{}'
//	curl localhost:8080/v1/status
//	curl localhost:8080/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/nn/ad"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/quality"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	appArg := flag.String("app", "",
		"bootstrap the default tenant's telemetry store from a simulated application before listening: social|hotel|media, @spec.json, or gen:seed=N,components=N (empty = start with no telemetry)")
	bootstrapDays := flag.Int("bootstrap-days", 2, "days of simulated telemetry to bootstrap with (-app only)")
	anonymize := flag.Bool("anonymize", false, "hash component/operation/API names before learning")
	salt := flag.String("salt", "", "anonymisation salt")
	hidden := flag.Int("hidden", 0, "GRU width override (0 = default)")
	epochs := flag.Int("epochs", 0, "training epochs override (0 = default)")
	fleetPath := flag.String("fleet", "",
		"fleet manifest (JSON, see internal/fleet): one tenant per manifest entry, served at /v1/t/{app}/... (empty = the single tenant \"default\")")
	trainWorkers := flag.Int("train-workers", 0, "shared training worker-pool size (0 = 2)")
	maxTenants := flag.Int("max-tenants", 0, "resident tenant bound (0 = 64)")
	ingestRate := flag.Float64("ingest-rate", 0, "per-tenant sustained telemetry ingests per second before shedding with 429 (0 = unbounded)")
	ingestBurst := flag.Int("ingest-burst", 0, "per-tenant ingest burst allowance (0 = max(2*rate, 4))")
	retrainEvery := flag.Duration("retrain-every", 0, "background retrain cadence (0 = training scheduler not started)")
	window := flag.Int("window", 0, "sliding window: train on the last N telemetry windows (0 = all)")
	retention := flag.Int("retention", 0, "telemetry retention horizon in windows: the store is a ring buffer evicting the oldest window past this bound (0 = 2x -window when -window is set, else unbounded; negative = unbounded)")
	checkpointDir := flag.String("checkpoint-dir", "", "directory for model checkpoints, one sub-directory per tenant (empty = in-memory only)")
	history := flag.Int("history", 0, "model generations to retain (0 = default)")
	maxInflight := flag.Int("max-inflight", 0, "per-tenant admission bound: concurrent API requests before shedding with 503 (0 = unbounded)")
	requestTimeout := flag.Duration("request-timeout", 0, "per-request deadline propagated through handler contexts (0 = none)")
	faultSpec := flag.String("fault-spec", "", "deterministic control-plane fault scenario, e.g. \"seed=1;retrainfail:prob=0.3\" (see internal/faults; for resilience drills)")
	qualityHorizon := flag.Duration("quality-horizon", 24*time.Hour, "longest rolling shadow-scoring horizon served at /v1/quality")
	qualityThreshold := flag.Float64("quality-retrain-threshold", quality.DefaultSMAPEThreshold, "mean sMAPE (percent) over the windows since the last training run above which a drift tick retrains early")
	logLevel := flag.String("log-level", "info", "log severity: debug, info, warn, or error")
	logFormat := flag.String("log-format", "text", "log rendering: text or json")
	pprofOn := flag.Bool("pprof", false, "mount /debug/pprof/ and /debug/spans on the main listener")
	debugAddr := flag.String("debug-addr", "", "separate operator listener for /metrics, /debug/spans and /debug/pprof/ (empty = off)")
	flag.Parse()

	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "deeprestd: %v\n", err)
		os.Exit(2)
	}
	fatal := func(msg string, args ...interface{}) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	metrics := obs.NewRegistry()
	buildinfo.Register(metrics)
	obs.RegisterRuntime(metrics)
	tracer := obs.NewSpanTracer(512, 1)
	opts := core.DefaultOptions()
	opts.Anonymize = *anonymize
	opts.HashSalt = *salt
	opts.Metrics = metrics
	opts.Logger = logger
	opts.Tracer = tracer
	if *hidden > 0 {
		opts.Estimator.Hidden = *hidden
	}
	if *epochs > 0 {
		opts.Estimator.Epochs = *epochs
	}

	pcfg := pipeline.DefaultConfig()
	if *retrainEvery > 0 {
		pcfg.Interval = *retrainEvery
		pcfg.DriftEvery = 0 // re-derive from the interval
	}
	pcfg.Window = *window
	pcfg.CheckpointDir = *checkpointDir
	if *history > 0 {
		pcfg.MaxHistory = *history
	}
	if *faultSpec != "" {
		sched, err := faults.Compile(*faultSpec)
		if err != nil {
			fatal("bad -fault-spec", "error", err)
		}
		pcfg.Faults = sched
		if sched.TouchesSim() {
			logger.Warn("fault spec contains simulator-facing injectors; the daemon only applies control-plane faults (retrainfail, ckptcorrupt)")
		}
		logger.Warn("fault injection armed — this daemon will deliberately fail", "spec", *faultSpec)
	}

	// The default horizon keeps the training window plus the same again as
	// query slack, so scheduled retrains and recent-range sanity checks
	// always find their telemetry resident.
	resolvedRetention := 0
	switch {
	case *retention > 0:
		resolvedRetention = *retention
	case *retention == 0 && *window > 0:
		resolvedRetention = 2 * *window
	}
	if resolvedRetention > 0 && *window > resolvedRetention {
		logger.Warn("-window exceeds -retention; training degrades to the resident windows",
			"window", *window, "retention", resolvedRetention)
	}
	if resolvedRetention > 0 {
		logger.Info("telemetry retention armed", "windows", resolvedRetention)
	}

	// Every daemon is a fleet. Without -fleet its one tenant is "default"
	// (bootstrapped from -app, or push-only); the manifest only adds
	// tenants. "default" is created first, so the un-prefixed routes alias it.
	var tenants []fleet.TenantSpec
	if *fleetPath == "" || *appArg != "" {
		tenants = append(tenants, fleet.TenantSpec{
			App: "default", Spec: *appArg, BootstrapDays: *bootstrapDays,
		})
	}
	if *fleetPath != "" {
		manifest, err := fleet.LoadManifest(*fleetPath)
		if err != nil {
			fatal("fleet manifest rejected", "path", *fleetPath, "error", err)
		}
		tenants = append(tenants, manifest.Tenants...)
	}
	fl := fleet.New(fleet.Config{
		Opts:             opts,
		Pipeline:         pcfg,
		MaxTenants:       *maxTenants,
		TrainWorkers:     *trainWorkers,
		MaxInflight:      *maxInflight,
		IngestRate:       *ingestRate,
		IngestBurst:      *ingestBurst,
		RequestTimeout:   *requestTimeout,
		Retention:        resolvedRetention,
		QualityHorizon:   *qualityHorizon,
		QualityThreshold: *qualityThreshold,
	})
	for _, ts := range tenants {
		t, err := fl.Create(ts)
		if err != nil {
			fatal("tenant creation failed", "tenant", ts.App, "error", err)
		}
		st := t.Server().Pipeline().Status()
		logger.Info("tenant resident", "app", t.ID, "spec", t.Spec,
			"windows", t.Server().Windows(),
			"generations", st.Generations, "serving_version", st.ActiveVersion)
	}
	if *retrainEvery > 0 {
		fl.StartScheduler()
		logger.Info("training scheduler started",
			"tenants", len(tenants), "train_workers", fl.TrainWorkers(),
			"retrain_every", pcfg.Interval)
	}
	handler := fl.Handler()
	if *pprofOn {
		handler = debugMux(handler, tracer)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() {
		logger.Info("listening", "addr", *addr, "version", buildinfo.String(),
			"kernels", ad.KernelImpl(), "gates", ad.GateImpl(), "anonymize", *anonymize, "pprof", *pprofOn)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal("listener failed", "error", err)
		}
	}()

	var dbg *http.Server
	if *debugAddr != "" {
		metricsOnly := http.NewServeMux()
		metricsOnly.Handle("GET /metrics", metrics.Handler())
		dbg = &http.Server{
			Addr:              *debugAddr,
			Handler:           debugMux(metricsOnly, tracer),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			logger.Info("debug listener up", "addr", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fatal("debug listener failed", "error", err)
			}
		}()
	}

	// SIGINT (operator ^C) and SIGTERM (orchestrator stop, e.g. Kubernetes)
	// both trigger the same graceful shutdown.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	logger.Info("shutting down")
	fl.Close() // waits for in-flight training; checkpoints are on disk
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("shutdown incomplete", "error", err)
	}
	if dbg != nil {
		if err := dbg.Shutdown(shutdownCtx); err != nil {
			logger.Warn("debug shutdown incomplete", "error", err)
		}
	}
}

// buildLogger assembles the daemon's structured logger from the -log-level
// and -log-format flags.
func buildLogger(level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn, or error)", level)
	}
	hopts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, hopts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, hopts)), nil
	}
	return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
}

// debugMux puts the operator surface — stage spans and the full pprof set —
// in front of next. It is the one place they are mounted: -pprof wraps the
// fleet handler with it on the main listener, -debug-addr serves it over
// /metrics alone.
func debugMux(next http.Handler, tracer *obs.SpanTracer) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", next)
	mux.Handle("GET /debug/spans", tracer.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
