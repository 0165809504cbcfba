// Package service exposes DeepRest over HTTP — the deployment mode the
// paper envisions ("DeepRest can be deployed in on-premises clusters or a
// cloud as a service to serve any hosted application", §1). The API is
// deliberately small and JSON-only:
//
//	POST /v1/telemetry        ingest a telemetry stream (telemetry JSON format)
//	POST /v1/learn            train and publish one model generation
//	GET  /v1/status           learning state, window counts, expert inventory
//	POST /v1/estimate         Mode 1: resources for hypothetical API traffic
//	POST /v1/sanity           Mode 2: sanity-check a served period
//	GET  /v1/influence        learned API→resource dependencies for one pair
//	GET  /v1/model            download the serialized active model
//	GET  /v1/autoscale/plan   read-only scaling schedule from recent telemetry
//
// Continuous learning (internal/pipeline; retraining is driven by the
// fleet's scheduler, internal/fleet, which the daemon arms with
// -retrain-every):
//
//	GET  /v1/pipeline/status  training state, drift verdict, last error
//	GET  /v1/models           list retained model generations
//	POST /v1/models/{version}/activate  roll back (or forward) the serving model
//	GET  /v1/quality          shadow-scoring report of the active generation
//
// Observability (see internal/obs):
//
//	GET  /metrics             Prometheus text-format metrics (mounted when
//	                          core.Options.Metrics is non-nil)
//	GET  /v1/version          build identity (version, VCS revision, Go release)
//
// Every response carries an X-Request-ID header (propagated from the request
// when the caller set one), and with a configured Logger each request emits
// one structured access-log line keyed by that id.
//
// Model lifecycle: every training run — manual /v1/learn, scheduled retrain,
// or drift-triggered retrain — publishes a new generation into a versioned
// registry. Serving reads (/v1/estimate, /v1/sanity, /v1/influence,
// /v1/model) grab the active generation through one atomic snapshot: they
// never block on training and never observe a half-swapped model. Responses
// carry the generation version that produced them.
//
// Only one generation trains at a time: a /v1/learn issued while another
// training run is in flight fails fast with 409 Conflict instead of queueing
// behind (or racing with) the running generation.
//
// Overload and failure behavior: with Config.IngestRate set, telemetry
// pushes beyond the token bucket are shed with 429 + Retry-After; with
// Config.MaxInflight set, requests beyond the bound are shed with 503 +
// Retry-After rather than queueing without bound; with Config.RequestTimeout
// set, each request carries a context deadline that long-running handlers
// observe. When retraining fails (including injected
// failures from a fault schedule), queries keep being served from the last
// good generation and /v1/status reports degraded=true — graceful
// degradation rather than an outage.
//
// Privacy note: when the server is created with anonymisation enabled, all
// component, operation, and API names are hashed before entering the model,
// matching the paper's DeepRest-as-a-service threat model.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/anomaly"
	"repro/internal/app"
	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/quality"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Config holds one server's operator settings. It is validated and frozen by
// New; the zero value means no admission bounds, no request deadline,
// unbounded retention and the default early-retrain bound.
type Config struct {
	// MaxInflight bounds concurrently admitted API requests; further
	// requests are shed immediately with 503 + Retry-After instead of
	// queueing without bound. 0 disables the bound. GET /metrics is exempt
	// so the service stays observable under overload.
	MaxInflight int
	// IngestRate and IngestBurst arm the ingest token bucket: at most
	// IngestRate POST /v1/telemetry requests per second sustained,
	// IngestBurst in a burst, beyond which ingest is shed with 429 +
	// Retry-After. Rate 0 disables; burst 0 means max(2*rate, 4).
	IngestRate  float64
	IngestBurst int
	// RequestTimeout bounds each request's wall-clock handling time via its
	// context; long-running handlers (training) observe the deadline at
	// phase boundaries and abandon work cleanly. 0 disables it.
	RequestTimeout time.Duration
	// Retention bounds the telemetry store to the most recent N windows
	// (ring-buffer eviction; see telemetry.Server.SetRetention). 0 keeps
	// every window forever.
	Retention int
	// QualityHorizon is the longest shadow-scoring report horizon (see
	// internal/quality); 0 means 24h. QualityThreshold is the early-retrain
	// verdict's error bound: a mean sMAPE above it (percent) over the
	// windows since the last training run retrains with trigger "drift";
	// 0 means quality.DefaultSMAPEThreshold.
	QualityHorizon   time.Duration
	QualityThreshold float64
}

func (c Config) validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"MaxInflight", float64(c.MaxInflight)},
		{"IngestRate", c.IngestRate},
		{"IngestBurst", float64(c.IngestBurst)},
		{"RequestTimeout", float64(c.RequestTimeout)},
		{"Retention", float64(c.Retention)},
		{"QualityHorizon", float64(c.QualityHorizon)},
		{"QualityThreshold", c.QualityThreshold},
	} {
		if f.v < 0 || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("service: config: %s %v is not a finite value >= 0", f.name, f.v)
		}
	}
	return nil
}

// The /v1/estimate table's two bounds, per tenant: estimateCacheSize keys,
// running or done, and estimateCacheBytes retained (each key's request, each
// completed call's response once). The first bounds the map when answers are
// tiny; the second bounds the heap when they are not, as a gen150 read of a
// week's windows answers ~50 MB.
const (
	estimateCacheSize  = 512
	estimateCacheBytes = 8 << 20
)

// Server is the HTTP facade over one DeepRest instance.
type Server struct {
	opts    core.Options
	cfg     Config
	handler http.Handler

	// store is the tenant's one telemetry store, created with the server and
	// never replaced; it does its own locking.
	store   *telemetry.Server
	pipe    *pipeline.Pipeline
	quality *quality.Scorer

	estimates *estimateTable
	// The request-side stages of deeprest_estimate_stage_duration_seconds,
	// resolved once so a hit pays no label lookup (see handleEstimate).
	stageRead, stageLookup, stageDecode, stageWait *obs.Histogram
	// The stages of a sanity check (see handleSanity) and of an influence
	// probe (handleInfluence); nil without metrics.
	sanityStages, influenceStages *obs.HistogramVec

	modelDownloadFails *obs.Counter

	// Admission state (see withAdmission): owned by the server, so every
	// caller of Handler shares one bound.
	admit  chan struct{} // in-flight semaphore; nil = unbounded
	bucket *tokenBucket  // ingest meter; nil = unmetered

	// Observability (all nil-safe no-ops when opts.Metrics / opts.Logger
	// are nil; see withObservability).
	log          *slog.Logger
	httpReqs     *obs.CounterVec
	httpDur      *obs.HistogramVec
	httpInFlight *obs.Gauge
	shedRate     *obs.Counter // deeprest_http_shed_total{reason="ingest_rate"}
	shedInflight *obs.Counter // deeprest_http_shed_total{reason="inflight"}
	reqPrefix    string
	reqSeq       atomic.Uint64
}

// NewWithConfig is New with the zero Config: no admission bounds, no request
// deadline, unbounded retention.
func NewWithConfig(opts core.Options, pcfg pipeline.Config) (*Server, error) {
	return New(opts, pcfg, Config{})
}

// New returns a service with the given learning options, continuous-learning
// configuration (checkpoint directory, retrain cadence, drift thresholds,
// registry bound) and server settings. The telemetry store is created here,
// empty; its window duration comes from the first stream's header.
func New(opts core.Options, pcfg pipeline.Config, cfg Config) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Server{opts: opts, cfg: cfg, log: opts.Logger, reqPrefix: newRequestPrefix(),
		store: telemetry.NewServer(0)}
	s.store.SetRetention(cfg.Retention)
	s.store.Instrument(opts.Metrics)
	s.store.SetTracer(opts.Tracer)
	if m := opts.Metrics; m != nil {
		s.httpReqs = m.CounterVec("deeprest_http_requests_total",
			"HTTP requests served, by endpoint pattern and status code.",
			"endpoint", "code")
		s.httpDur = m.HistogramVec("deeprest_http_request_duration_seconds",
			"HTTP request latency by endpoint pattern.",
			obs.DefBuckets, "endpoint")
		s.httpInFlight = m.Gauge("deeprest_http_in_flight_requests",
			"Requests currently being served.")
		shed := m.CounterVec("deeprest_http_shed_total",
			"Requests shed at admission, by reason: ingest_rate (429, ingest token bucket empty) or inflight (503, in-flight bound reached).",
			"reason")
		s.shedRate, s.shedInflight = shed.With("ingest_rate"), shed.With("inflight")
		// One counter per process (root view), whichever tenant's download
		// failed; the warning in the log names the generation.
		s.modelDownloadFails = m.Root().Counter("deeprest_model_download_failures_total",
			"GET /v1/model responses that failed mid-stream; the connection is aborted so the client sees an error, not a short model.")
	}
	buildinfo.Register(opts.Metrics)
	obs.RegisterRuntime(opts.Metrics)
	s.estimates = newEstimateTable(opts.Tracer, opts.Metrics)
	stages := s.estimates.stageSeconds
	s.stageRead, s.stageLookup, s.stageDecode, s.stageWait = stages.With("read"), stages.With("lookup"), stages.With("decode"), stages.With("wait")
	s.sanityStages = opts.Metrics.HistogramVec("deeprest_sanity_stage_duration_seconds",
		"Wall-clock duration of one stage of a sanity check: features (the range's cached feature vectors), metrics (its measured utilization), predict (the inference engine), detect (the anomaly detector), encode (JSON response).",
		obs.DurationBuckets, "stage")
	s.influenceStages = opts.Metrics.HistogramVec("deeprest_influence_stage_duration_seconds",
		"Wall-clock duration of one stage of an influence query: features (the resident windows' cached feature vectors), probe (the occlusion probes on the model), encode (JSON response).",
		obs.DurationBuckets, "stage")
	if cfg.MaxInflight > 0 {
		s.admit = make(chan struct{}, cfg.MaxInflight)
	}
	if cfg.IngestRate > 0 {
		burst := float64(cfg.IngestBurst)
		if burst == 0 {
			burst = math.Max(math.Floor(2*cfg.IngestRate), 4)
		}
		s.bucket = newTokenBucket(cfg.IngestRate, burst)
	}
	// The shadow scorer's verdict is the pipeline's early-retrain decision;
	// the scorer is the service's, over the same store and generation.
	if pcfg.QualityCheck == nil {
		pcfg.QualityCheck = s.qualityVerdict
	}
	p, err := pipeline.New(opts, pcfg, s.store)
	if err != nil {
		return nil, err
	}
	s.pipe = p
	s.quality = s.newScorer()
	s.handler = s.routes()
	return s, nil
}

// Pipeline exposes the continuous-learning orchestrator: the fleet recovers
// checkpoints through it at tenant creation and its scheduler drives the
// retrain and drift ticks.
func (s *Server) Pipeline() *pipeline.Pipeline { return s.pipe }

// Windows reports the total ingested telemetry window count — the fleet
// status endpoint reads it without going through the tenant's HTTP surface.
func (s *Server) Windows() int { return s.store.NumWindows() }

// ShedCount reports how many requests have been shed at admission, 429s and
// 503s together.
func (s *Server) ShedCount() uint64 { return s.shedRate.Value() + s.shedInflight.Value() }

// Handler returns the routed HTTP handler, built once at construction.
func (s *Server) Handler() http.Handler { return s.handler }

func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/telemetry", s.handleTelemetry)
	mux.HandleFunc("POST /v1/learn", s.handleLearn)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("POST /v1/estimate", s.handleEstimate)
	mux.HandleFunc("POST /v1/sanity", s.handleSanity)
	mux.HandleFunc("GET /v1/influence", s.handleInfluence)
	mux.HandleFunc("GET /v1/model", s.handleModel)
	mux.HandleFunc("GET /v1/pipeline/status", s.handlePipelineStatus)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("POST /v1/models/{version}/activate", s.handleActivate)
	mux.HandleFunc("GET /v1/quality", s.handleQuality)
	mux.HandleFunc("GET /v1/autoscale/plan", s.handleAutoscalePlan)
	mux.HandleFunc("GET /v1/version", s.handleVersion)
	if s.opts.Metrics != nil {
		mux.Handle("GET /metrics", s.opts.Metrics.Handler())
	}
	return s.withObservability(s.withAdmission(s.withDeadline(mux)))
}

// httpError is the uniform error body.
type httpError struct {
	Error string `json:"error"`
}

func writeErr(w http.ResponseWriter, code int, format string, args ...interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(httpError{Error: fmt.Sprintf(format, args...)})
}

// writeJSON answers 200 with v, or 500 with the uniform error body when v
// cannot be encoded (a NaN, say) — never an empty 200.
func writeJSON(w http.ResponseWriter, v interface{}) {
	b, err := json.Marshal(v)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "encode response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(b, '\n'))
}

// handleTelemetry ingests a telemetry stream (the interchange format of
// internal/telemetry) and appends its windows to the store.
func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	_, span := s.opts.Tracer.Start(r.Context(), "service.ingest")
	defer span.End()
	in, err := telemetry.ImportJSON(r.Body)
	if err != nil {
		span.SetErr(err)
		writeErr(w, http.StatusBadRequest, "ingest: %v", err)
		return
	}
	span.SetWindows(in.NumWindows())
	total, err := s.ingest(in)
	if err != nil {
		writeErr(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, map[string]int{"windows": total})
}

// ingest is the one way telemetry enters the service (pushed streams and the
// simulated bootstrap alike): the parsed stream is appended whole, or — its
// window duration disagreeing with the store's — not at all. It returns the
// store's total window count.
func (s *Server) ingest(in *telemetry.Server) (int, error) {
	if err := s.store.Append(in); err != nil {
		return 0, err
	}
	return s.store.NumWindows(), nil
}

// learnRequest controls one training generation.
type learnRequest struct {
	// From and To bound the learning windows; To 0 means "all".
	From int `json:"from,omitempty"`
	To   int `json:"to,omitempty"`
	// Pairs optionally restricts the estimation targets
	// ("Component/resource" keys). The restriction sticks: scheduled and
	// drift-triggered retrains train the same pairs.
	Pairs []string `json:"pairs,omitempty"`
}

// handleLearn trains one generation through the pipeline and publishes it.
// It holds no server lock during training: queries keep serving the
// previous generation, and a concurrent learn gets 409 Conflict.
func (s *Server) handleLearn(w http.ResponseWriter, r *http.Request) {
	var req learnRequest
	if !decodeBody(w, r, &req) {
		return
	}
	windows := s.store.NumWindows()
	if windows == 0 {
		writeErr(w, http.StatusPreconditionFailed, "no telemetry ingested")
		return
	}
	to := req.To
	if to == 0 {
		to = windows
	}
	var pairs []app.Pair
	for _, key := range req.Pairs {
		p, err := app.ParsePair(key)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		pairs = append(pairs, p)
	}
	gen, err := s.pipe.TrainOnceCtx(r.Context(), req.From, to, pairs, "manual")
	switch {
	case errors.Is(err, pipeline.ErrTrainingInFlight):
		writeErr(w, http.StatusConflict, "%v", err)
		return
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// The request deadline fired (or the client went away) before the
		// generation could publish; the previous generation keeps serving.
		writeErr(w, http.StatusGatewayTimeout, "learn: %v", err)
		return
	case err != nil:
		writeErr(w, http.StatusUnprocessableEntity, "learn: %v", err)
		return
	}
	writeJSON(w, map[string]interface{}{
		"experts":  gen.Experts(),
		"windows":  gen.To - gen.From,
		"features": gen.Model().Space.Dim(),
		"version":  gen.Version,
	})
}

// statusResponse reports the service state.
type statusResponse struct {
	Windows int  `json:"windows"`
	Learned bool `json:"learned"`
	// ResidentWindows and OldestWindow describe the retention ring: how
	// many windows are held in memory and the first absolute index still
	// queryable. They match Windows/0 on an unbounded store.
	ResidentWindows int      `json:"resident_windows"`
	OldestWindow    int      `json:"oldest_window"`
	Experts         []string `json:"experts,omitempty"`
	// Version is the active model generation (0 before the first learn).
	Version int `json:"version,omitempty"`
	// Generations counts the retained registry entries.
	Generations int `json:"generations,omitempty"`
	// Degraded is true while retraining is failing and queries are being
	// answered from the last good generation.
	Degraded bool `json:"degraded,omitempty"`
	// ServerVersion is the build identity of the serving binary.
	ServerVersion string `json:"server_version"`
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	resp := statusResponse{
		ServerVersion:   buildinfo.Version,
		Windows:         s.store.NumWindows(),
		ResidentWindows: s.store.ResidentWindows(),
		OldestWindow:    s.store.OldestWindow(),
	}
	if gen := s.pipe.Active(); gen != nil {
		resp.Learned = true
		resp.Version = gen.Version
		for _, p := range gen.System.Pairs() {
			resp.Experts = append(resp.Experts, p.String())
		}
		sort.Strings(resp.Experts)
	}
	resp.Generations = len(s.pipe.Registry().Generations())
	resp.Degraded = s.pipe.Degraded()
	writeJSON(w, resp)
}

// estimateRequest is a Mode-1 query: hypothetical API traffic as per-window
// request counts per endpoint.
type estimateRequest struct {
	// Windows holds the traffic: one map per scrape window.
	Windows []map[string]int `json:"windows"`
	// WindowsPerDay defaults to the number of windows (single day).
	WindowsPerDay int `json:"windows_per_day,omitempty"`
}

// validate refuses traffic the engine must not be asked to price: none, more
// windows than maxReadWindows, or a negative request count (the
// synthesizer would read it as zero and estimate nothing, confidently).
func (req *estimateRequest) validate() error {
	if len(req.Windows) == 0 {
		return errors.New("empty traffic")
	}
	if len(req.Windows) > maxReadWindows {
		return fmt.Errorf("%d windows in one estimate, at most %d (a week at 288 a day)", len(req.Windows), maxReadWindows)
	}
	for i, win := range req.Windows {
		for api, n := range win {
			if n < 0 {
				return fmt.Errorf("window %d: API %q has a negative request count %d", i, api, n)
			}
		}
	}
	return nil
}

// handleEstimate answers a Mode-1 query. Estimates are deterministic per
// generation, so the estimate table is asked first, by the body's bytes as
// they arrived: a repeated read is answered, or joins the flight computing
// it, with no JSON work at all. Only a spelling the table has not filed is
// decoded, validated and re-marshaled to its canonical form (field order,
// sorted keys, no whitespace), the identity a call is started under; a
// spelling that is not canonical is filed as a second key to the same call.
// A key therefore exists only behind a body that decoded and validated, and
// a failed call takes its keys with it: a hit never serves what a miss would
// refuse.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	raw, ok := readBody(w, r)
	if !ok {
		return
	}
	readDone := time.Now()
	s.stageRead.Observe(readDone.Sub(start).Seconds())
	// RCU read: one atomic load pins the generation for the whole query.
	gen := s.pipe.Active()
	var c *estCall
	var done bool
	if gen != nil {
		c, done = s.estimates.find(predKey(gen.Version, raw), raw)
		s.stageLookup.Observe(time.Since(readDone).Seconds())
	}
	if c == nil {
		decoding := time.Now()
		var req estimateRequest
		var canon []byte
		err := decodeJSON(raw, &req)
		if err == nil {
			err = req.validate()
		}
		if err == nil {
			canon, _ = json.Marshal(req)
		}
		s.stageDecode.Observe(time.Since(decoding).Seconds())
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		if gen == nil {
			writeErr(w, http.StatusPreconditionFailed, "not learned yet")
			return
		}
		wpd := req.WindowsPerDay
		if wpd == 0 {
			wpd = len(req.Windows)
		}
		traffic := &workload.Traffic{Windows: req.Windows, WindowSeconds: s.store.WindowSeconds(), WindowsPerDay: wpd}
		c, done = s.estimates.start(r.Context(), gen, traffic, canon, raw)
	}
	if done {
		writeEstimate(w, c.body, true)
		return
	}

	waiting := time.Now()
	body, err := c.wait(r.Context())
	s.stageWait.Observe(time.Since(waiting).Seconds())
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		writeErr(w, http.StatusGatewayTimeout, "estimate: %v", err)
		return
	case err != nil:
		writeErr(w, http.StatusUnprocessableEntity, "estimate: %v", err)
		return
	}
	writeEstimate(w, body, false)
}

// writeEstimate sends a marshaled estimate. The length is stated, so a
// 40-140 KB body goes out whole instead of chunk-framed.
func writeEstimate(w http.ResponseWriter, body []byte, hit bool) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	if hit {
		h.Set("X-DeepRest-Cache", "hit")
	}
	_, _ = w.Write(body)
}

// sanityRequest is a Mode-2 query over a previously ingested window range.
type sanityRequest struct {
	// From and To bound the served period within the store.
	From int `json:"from"`
	To   int `json:"to"`
	// Threshold and MinLen tune the detector (0 = defaults).
	Threshold float64 `json:"threshold,omitempty"`
	MinLen    int     `json:"min_len,omitempty"`
}

// sanityResponse lists detected events.
type sanityResponse struct {
	Version int           `json:"version"`
	Events  []sanityEvent `json:"events"`
}

type sanityEvent struct {
	Component  string            `json:"component"`
	FromWindow int               `json:"from_window"`
	ToWindow   int               `json:"to_window"`
	PeakScore  float64           `json:"peak_score"`
	Deviations map[string]string `json:"deviations"`
}

// handleSanity answers a Mode-2 query. Like a computed estimate it is timed
// where it is computed: a service.sanity span with one child per stage, each
// stage also observed into deeprest_sanity_stage_duration_seconds.
func (s *Server) handleSanity(w http.ResponseWriter, r *http.Request) {
	var req sanityRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if n := req.To - req.From; n > maxReadWindows {
		writeErr(w, http.StatusBadRequest, "%d windows in one sanity check, at most %d (a week at 288 a day)", n, maxReadWindows)
		return
	}
	gen := s.pipe.Active()
	if gen == nil {
		writeErr(w, http.StatusPreconditionFailed, "not learned yet")
		return
	}
	ctx, span := s.opts.Tracer.Start(r.Context(), "service.sanity")
	defer span.End()
	span.SetWindows(req.To - req.From)
	stage := s.opts.Tracer.Stages(ctx, s.sanityStages)
	fail := func(code int, format string, err error) {
		span.SetErr(err)
		writeErr(w, code, format, err)
	}
	sys, store := gen.System, s.store
	// Serve from the per-window feature cache: each window was extracted
	// once at Record time (or on the first read after a generation swap),
	// so the sanity check never re-walks the stored trace trees.
	end := stage("telemetry.features", "features")
	series, err := store.Features(gen.Version, sys.Extractor(), req.From, req.To)
	end()
	if err != nil {
		fail(http.StatusBadRequest, "%v", err)
		return
	}
	end = stage("telemetry.metrics", "metrics")
	actual := make(map[app.Pair][]float64)
	for _, p := range sys.Pairs() {
		if actual[p], err = store.Metric(p, req.From, req.To); err != nil {
			break
		}
	}
	end()
	if err != nil {
		fail(http.StatusBadRequest, "%v", err)
		return
	}
	end = stage("infer.predict", "predict")
	expected, err := sys.ExpectedUtilizationVectors(series)
	end()
	if err != nil {
		fail(http.StatusUnprocessableEntity, "sanity: %v", err)
		return
	}
	det := anomaly.NewDetector()
	if req.Threshold > 0 {
		det.Threshold = req.Threshold
	}
	if req.MinLen > 0 {
		det.MinLen = req.MinLen
	}
	end = stage("anomaly.detect", "detect")
	events, err := det.Detect(actual, expected)
	end()
	if err != nil {
		fail(http.StatusUnprocessableEntity, "sanity: %v", err)
		return
	}
	defer stage("service.encode", "encode")()
	resp := sanityResponse{Version: gen.Version, Events: []sanityEvent{}}
	for _, e := range events {
		ev := sanityEvent{
			Component:  e.Component,
			FromWindow: req.From + e.From,
			ToWindow:   req.From + e.To,
			PeakScore:  e.PeakScore,
			Deviations: make(map[string]string, len(e.Deviations)),
		}
		for _, d := range e.Deviations {
			dir := "higher"
			pct := d.Percent
			if pct < 0 {
				dir, pct = "lower", -pct
			}
			ev.Deviations[d.Pair.String()] = fmt.Sprintf("%.1f%% %s than expected", pct, dir)
		}
		resp.Events = append(resp.Events, ev)
	}
	writeJSON(w, resp)
}

// handleInfluence answers which APIs drive a pair, timed like a sanity check:
// a service.influence span with one child per stage, each stage also
// observed into deeprest_influence_stage_duration_seconds.
func (s *Server) handleInfluence(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("pair")
	if key == "" {
		writeErr(w, http.StatusBadRequest, "missing ?pair=Component/resource")
		return
	}
	p, err := app.ParsePair(key)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	gen := s.pipe.Active()
	if gen == nil {
		writeErr(w, http.StatusPreconditionFailed, "not learned yet")
		return
	}
	// The store's cached vectors, like every other read: extracted once per
	// window, and through the generation's own extractor, so an anonymised
	// model is probed in the hashed space it was learned in. A store with no
	// resident window (a push-only tenant after a restart) is a state, as
	// for /v1/autoscale/plan, not a bad request.
	to := s.store.NumWindows()
	from := max(s.store.OldestWindow(), to-maxReadWindows)
	if from >= to {
		writeErr(w, http.StatusPreconditionFailed, "no telemetry windows to probe")
		return
	}
	ctx, span := s.opts.Tracer.Start(r.Context(), "service.influence")
	defer span.End()
	stage := s.opts.Tracer.Stages(ctx, s.influenceStages)
	span.SetWindows(to - from)
	end := stage("telemetry.features", "features")
	series, err := s.store.Features(gen.Version, gen.System.Extractor(), from, to)
	end()
	if err != nil {
		span.SetErr(err)
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	end = stage("estimator.probe", "probe")
	infl, err := gen.Model().APIInfluence(p, series)
	end()
	if err != nil {
		span.SetErr(err)
		writeErr(w, http.StatusBadRequest, "influence: %v", err)
		return
	}
	defer stage("service.encode", "encode")()
	writeJSON(w, map[string]map[string]float64{"influence": infl})
}

func (s *Server) handleModel(w http.ResponseWriter, _ *http.Request) {
	gen := s.pipe.Active()
	if gen == nil {
		writeErr(w, http.StatusPreconditionFailed, "not learned yet")
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-DeepRest-Model-Version", strconv.Itoa(gen.Version))
	if err := gen.System.Save(w); err != nil {
		// The status line is out and the body is chunked: returning would
		// end it cleanly, and the client could not tell the short stream
		// from a whole one. Aborting the connection is the one error left
		// to send.
		s.modelDownloadFails.Inc()
		if s.log != nil {
			s.log.Warn("model download aborted mid-stream", "version", gen.Version, "err", err)
		}
		panic(http.ErrAbortHandler)
	}
}

// --- continuous-learning endpoints ---

func (s *Server) handlePipelineStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.pipe.Status())
}

// modelInfo describes one retained generation.
type modelInfo struct {
	Version    int       `json:"version"`
	Trigger    string    `json:"trigger"`
	FromWindow int       `json:"from_window"`
	ToWindow   int       `json:"to_window"`
	Experts    int       `json:"experts"`
	Warm       bool      `json:"warm_started"`
	TrainedAt  time.Time `json:"trained_at"`
	Active     bool      `json:"active"`
}

func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	active := s.pipe.Active()
	gens := s.pipe.Registry().Generations()
	out := make([]modelInfo, 0, len(gens))
	for _, g := range gens {
		out = append(out, modelInfo{
			Version: g.Version, Trigger: g.Trigger,
			FromWindow: g.From, ToWindow: g.To,
			Experts: g.Experts(), Warm: g.Warm, TrainedAt: g.TrainedAt,
			Active: active != nil && g.Version == active.Version,
		})
	}
	writeJSON(w, map[string]interface{}{"models": out})
}

func (s *Server) handleActivate(w http.ResponseWriter, r *http.Request) {
	version, err := strconv.Atoi(r.PathValue("version"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad version %q", r.PathValue("version"))
		return
	}
	// Refuse to swap mid-learn: the in-flight generation will publish (and
	// activate) momentarily, and racing an explicit rollback against it
	// gives a serving model nobody asked for.
	if s.pipe.TrainingInFlight() {
		writeErr(w, http.StatusConflict, "a training generation is in flight; retry after it publishes")
		return
	}
	gen, err := s.pipe.Activate(version)
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, map[string]int{"active": gen.Version})
}

// handleVersion reports the build identity of the serving binary.
func (s *Server) handleVersion(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]string{
		"version":    buildinfo.Version,
		"revision":   buildinfo.Revision(),
		"go_version": buildinfo.GoVersion(),
	})
}

// Bounds on what one request may ask for. Constants, not flags: no deployment
// of the repo needs another value.
const (
	// maxBodyBytes bounds a JSON request document (413 beyond it). The largest
	// legitimate one, a week of windows over a hundred APIs, is a few MB.
	// /v1/telemetry is not a document: it streams window by window into a
	// store that retention bounds.
	maxBodyBytes = 8 << 20
	// maxReadWindows bounds one estimate's traffic, and the range of one
	// sanity check or /v1/autoscale/plan, to a week at the default 288
	// windows a day. The engine's trajectory scratch is pairs × windows ×
	// hidden floats, so without it a few MB of `{},`, or `{"to":N}` or
	// `?windows=N` over a store that retains everything, ask for tens of GB.
	// /v1/influence probes the last this many resident windows: each costs
	// (APIs + 1) tape forwards and one input copy per API, and under the
	// default -retention 0 the store holds every window.
	maxReadWindows = 7 * 288
)

// readBody reads a whole request document, at most maxBodyBytes of it; past
// that, or on a failed read, it answers 413 or 400 and reports false.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= maxBodyBytes {
		buf.Grow(int(n) + bytes.MinRead) // the slack lets ReadFrom see EOF without growing
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		code := http.StatusBadRequest
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeErr(w, code, "read request: %v", err)
		return nil, false
	}
	return buf.Bytes(), true
}

// decodeBody reads a bounded request document and decodes it into v, or
// answers the error and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	raw, ok := readBody(w, r)
	if !ok {
		return false
	}
	if err := decodeJSON(raw, v); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return false
	}
	return true
}

// decodeJSON decodes one JSON request, tolerating an empty document as the
// zero value. The document is one JSON value: anything but whitespace behind
// it is refused, not ignored.
func decodeJSON(raw []byte, v interface{}) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	if err := dec.Decode(v); err != nil && !errors.Is(err, io.EOF) {
		return fmt.Errorf("decode request: %w", err)
	}
	if dec.More() {
		return errors.New("decode request: trailing data after the request")
	}
	return nil
}
