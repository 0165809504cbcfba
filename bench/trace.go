package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/anomaly"
	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/estimator/infer"
	"repro/internal/features"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/quality"
	"repro/internal/service"
	"repro/internal/trace"
)

const (
	// tracedRequests of the workload's requests are replayed in process.
	tracedRequests = 30
	// untracedRequests more are sent with no spans around them.
	untracedRequests = 15
	// singleRequests distinct reads are sent by one client over the socket,
	// to compare against the in-process root span.
	singleRequests = 20
)

// span is one timed call into a layer's public function. Spans of one
// replayed request share Req. A child with Replayed set is a second
// execution of the call the root made internally, with the same inputs,
// run right after the root returned: the layers have no hooks inside the
// handler, so children are not nested in time, only in cause.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"` // 0: a root
	Req      int     `json:"req"`
	Name     string  `json:"name"`
	StartUs  float64 `json:"start_us"`
	EndUs    float64 `json:"end_us"`
	Replayed bool    `json:"replayed,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// do times fn as a span and returns its id and duration in milliseconds.
func (tr *tracer) do(name string, parent, req int, fn func()) (int, float64) {
	start := time.Now()
	fn()
	end := time.Now()
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{
		ID: id, Parent: parent, Req: req, Name: name, Replayed: parent != 0,
		StartUs: float64(start.Sub(tr.t0)) / 1e3, EndUs: float64(end.Sub(tr.t0)) / 1e3,
	})
	return id, ms(end.Sub(start))
}

func (tr *tracer) write(path string) error {
	doc, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, doc, 0o644)
}

// socketReply is one read the single client made over the socket.
type socketReply struct{ body, resp []byte }

// singleClient sends distinct reads one at a time over the socket to the
// otherwise idle daemon. The in-process replay sends the same bodies, so
// the median here minus the root span is what the socket costs.
func (r *runner) singleClient() ([]socketReply, float64, error) {
	var rec recorder
	var buf bytes.Buffer
	replies := make([]socketReply, singleRequests)
	for i := range replies {
		t := r.targets[i%len(r.targets)]
		body := t.fx.body(int64(draw(r.seed, streamTrace, i)>>1), r.def.reqWindows)
		t0 := time.Now()
		err := r.side.do(t.estimate(body, -1, r.def.reqWindows, nil), &buf)
		rec.add(time.Since(t0), err)
		if err != nil {
			return nil, 0, fmt.Errorf("single-client read: %w", err)
		}
		replies[i] = socketReply{body, append([]byte(nil), buf.Bytes()...)}
	}
	return replies, median(rec.lat), nil
}

// inproc is one tenant rebuilt inside the harness.
type inproc struct {
	fx      *fixture
	prefix  string // path prefix at the fleet handler
	svc     *service.Server
	handler http.Handler // the tenant's own service.Handler
}

// serve runs one request through h and returns the status, body and headers.
func serve(h http.Handler, method, path string, body []byte) (int, []byte, http.Header) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes(), rec.Header()
}

// epochs collects the estimator's per-epoch progress events.
type epochs struct {
	mu      sync.Mutex
	trainMs []float64 // phase-A epochs, one expert each
	events  int
}

func (e *epochs) hook(ev estimator.ProgressEvent) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.events++
	if ev.Phase == estimator.PhaseTrain {
		e.trainMs = append(e.trainMs, ms(ev.Duration))
	}
}

// timeN runs fn n times and returns the median duration in milliseconds.
func timeN(n int, fn func()) float64 {
	d := make([]float64, n)
	for i := range d {
		t0 := time.Now()
		fn()
		d[i] = ms(time.Since(t0))
	}
	return median(d)
}

// bootInProcess builds the daemon's shape inside the harness: a fleet with
// the workload's tenants, or a single service. root is the handler the
// daemon would listen with.
func (r *runner) bootInProcess(opts core.Options) (root http.Handler, tenants []*inproc, stop func(), err error) {
	tenants = make([]*inproc, len(r.targets))
	if !r.fleet() {
		svc, err := service.NewWithConfig(opts, pipeline.DefaultConfig())
		if err != nil {
			return nil, nil, nil, err
		}
		tenants[0] = &inproc{fx: r.targets[0].fx, svc: svc, handler: svc.Handler()}
		return tenants[0].handler, tenants, func() {}, nil
	}
	fl := fleet.New(fleet.Config{Opts: opts, Pipeline: pipeline.DefaultConfig(),
		MaxInflight: fleetMaxInflight, IngestRate: fleetIngestRate, IngestBurst: fleetIngestBurst})
	for i, t := range r.targets {
		ft, err := fl.Create(fleet.TenantSpec{App: t.id})
		if err != nil {
			fl.Close()
			return nil, nil, nil, err
		}
		tenants[i] = &inproc{fx: t.fx, prefix: "/v1/t/" + t.id, svc: ft.Server(), handler: ft.Server().Handler()}
	}
	return fl.Handler(), tenants, fl.Close, nil
}

// perLayer rebuilds the workload's daemon inside the harness from the same
// inputs (same flags, same pushed telemetry, the same /v1/learn path through
// pipeline.TrainOnce), replays the workload's requests serially through it
// and times the calls into each layer's public functions.
func (r *runner) perLayer(res *result, st setupTimes, m *measured, lagP99 float64, replies []socketReply, singleMs float64, modelBytes int) error {
	tr := &tracer{t0: time.Now()}
	var ep epochs
	opts := core.DefaultOptions()
	opts.Estimator.Hidden = r.def.hidden
	opts.Estimator.Epochs = r.def.epochs
	opts.Estimator.Progress = ep.hook
	opts.Metrics = obs.NewRegistry()

	root, tenants, stop, err := r.bootInProcess(opts)
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	defer stop()

	// Ingest and learn, timed: pipeline.TrainOnce is what /v1/learn calls.
	var ms0, ms1 runtime.MemStats
	trainS, trainAllocs := 0.0, 0.0
	for _, tn := range tenants {
		for _, chunk := range tn.fx.chunks[:tn.fx.trainChunks] {
			if code, body, _ := serve(root, "POST", tn.prefix+"/v1/telemetry", chunk); code != 200 {
				return fmt.Errorf("traced run: ingest: status %d: %s", code, snippet(body))
			}
		}
		runtime.ReadMemStats(&ms0)
		var err error
		_, d := tr.do("pipeline.TrainOnce", 0, -1, func() {
			_, err = tn.svc.Pipeline().TrainOnce(0, 0, nil, "manual")
		})
		if err != nil {
			return fmt.Errorf("traced run: learn: %w", err)
		}
		runtime.ReadMemStats(&ms1)
		trainS += d / 1000
		trainAllocs += float64(ms1.Mallocs - ms0.Mallocs)
	}
	res.set("pipeline.train_once_s", trainS, "s")
	res.set("estimator.train_expert_epoch_ms", median(ep.trainMs), "ms")
	res.set("estimator.train_allocs_per_epoch", trainAllocs/float64(max(ep.events, 1)), "count")
	res.set("estimator.model_bytes", float64(modelBytes), "B")

	// Replay the workload's requests one at a time.
	var missMs, hitUs, fleetHitUs, selfMs, synthFeatMs, synthMs, extractMs, predictMs, reqB, respB []float64
	var series0 []features.Vector
	compared, differed := 0, 0
	for i := 0; i < tracedRequests; i++ {
		tn := tenants[i%len(tenants)]
		sys := tn.svc.Pipeline().Active().System
		body := tn.fx.body(int64(draw(r.seed, streamTrace, i)>>1), r.def.reqWindows)
		var code int
		var resp []byte
		var hdr http.Header
		rootID, rootMs := tr.do("service.Handler", 0, i, func() {
			code, resp, hdr = serve(tn.handler, "POST", "/v1/estimate", body)
		})
		if code != 200 || hdr.Get("X-DeepRest-Cache") == "hit" {
			return fmt.Errorf("traced run: estimate %d: status %d, cache %q: %s", i, code, hdr.Get("X-DeepRest-Cache"), snippet(resp))
		}
		// The in-process system was trained from the same inputs by the
		// same code, so it must answer as the daemon did (the learn
		// workload's daemon has trained further generations since).
		if i < len(replies) && !r.def.learnBeside {
			compared++
			if !bytes.Equal(resp, replies[i].resp) {
				differed++
			}
		}
		traffic, err := trafficOf(body)
		if err != nil {
			return err
		}
		var series []features.Vector
		sfID, sfMs := tr.do("core.SynthesizeFeatures", rootID, i, func() { series, err = sys.SynthesizeFeatures(traffic) })
		if err != nil {
			return fmt.Errorf("traced run: %w", err)
		}
		var windows [][]trace.Batch
		_, syMs := tr.do("synth.Synthesize", sfID, i, func() { windows, err = sys.Synthesizer().Synthesize(traffic, opts.SynthSeed) })
		if err != nil {
			return fmt.Errorf("traced run: %w", err)
		}
		_, exMs := tr.do("features.ExtractSeries", sfID, i, func() { sys.Model().Space.ExtractSeries(windows) })
		_, prMs := tr.do("infer.Predict", rootID, i, func() { _, err = sys.Engine().Predict(series) })
		if err != nil {
			return fmt.Errorf("traced run: %w", err)
		}
		// The repeated body is a cache hit. On the fleet it is timed at the
		// tenant's handler and at the fleet's, in alternating order so that
		// neither always runs on the warmer cache lines.
		hit := func(name string, h http.Handler, path string) (float64, error) {
			_, d := tr.do(name, 0, i, func() { code, _, hdr = serve(h, "POST", path, body) })
			if code != 200 || hdr.Get("X-DeepRest-Cache") != "hit" {
				return 0, fmt.Errorf("traced run: repeated estimate %d at %s was not a cache hit (status %d)", i, name, code)
			}
			return d * 1000, nil
		}
		var hUs, fUs float64
		if i%2 == 0 {
			hUs, err = hit("service.Handler.hit", tn.handler, "/v1/estimate")
		}
		if err == nil && r.fleet() {
			fUs, err = hit("fleet.Handler.hit", root, tn.prefix+"/v1/estimate")
			fleetHitUs = append(fleetHitUs, fUs)
		}
		if err == nil && i%2 == 1 {
			hUs, err = hit("service.Handler.hit", tn.handler, "/v1/estimate")
		}
		if err != nil {
			return err
		}
		if i == 0 {
			series0 = series
		}
		missMs, hitUs = append(missMs, rootMs), append(hitUs, hUs)
		synthFeatMs, synthMs, extractMs = append(synthFeatMs, sfMs), append(synthMs, syMs), append(extractMs, exMs)
		predictMs = append(predictMs, prMs)
		// Self time is what is left of the root once its children are
		// taken out, so children and self add up to the root exactly.
		selfMs = append(selfMs, rootMs-sfMs-prMs)
		reqB, respB = append(reqB, float64(len(body))), append(respB, float64(len(resp)))
	}
	res.Attempted += compared
	res.Failed += differed
	res.note("in-process replay: %d responses compared with the daemon's byte for byte, %d differed", compared, differed)

	// The same requests with no spans around them: the difference to the
	// traced roots is what measuring costs.
	t0 := time.Now()
	for i := 0; i < untracedRequests; i++ {
		tn := tenants[i%len(tenants)]
		body := tn.fx.body(int64(draw(r.seed, streamTrace, tracedRequests+i)>>1), r.def.reqWindows)
		if code, resp, _ := serve(tn.handler, "POST", "/v1/estimate", body); code != 200 {
			return fmt.Errorf("traced run: untraced estimate: status %d: %s", code, snippet(resp))
		}
	}
	plainMs := ms(time.Since(t0)) / untracedRequests
	tracedMean := 0.0
	for _, v := range missMs {
		tracedMean += v / float64(len(missMs))
	}

	res.set("service.handler_miss_ms", median(missMs), "ms")
	res.set("service.handler_hit_us", median(hitUs), "us")
	res.set("service.self_ms", median(selfMs), "ms")
	res.set("service.req_bytes", median(reqB), "B")
	res.set("service.resp_bytes", median(respB), "B")
	res.set("core.synthesize_features_ms", median(synthFeatMs), "ms")
	res.set("synth.synthesize_ms", median(synthMs), "ms")
	res.set("features.extract_series_ms", median(extractMs), "ms")
	res.set("infer.predict_ms", median(predictMs), "ms")
	overhead := 0.0
	if r.fleet() {
		overhead = median(fleetHitUs) - median(hitUs)
	}
	res.set("fleet.route_overhead_us", overhead, "us")
	res.set("trace.socket_minus_inproc_ms", singleMs-median(missMs), "ms")
	res.set("trace.overhead_pct", (tracedMean-plainMs)/plainMs*100, "%")

	// Layers below the handler, on the first tenant's system.
	sys := tenants[0].svc.Pipeline().Active().System
	if err := r.engineLayers(res, sys, series0); err != nil {
		return err
	}
	if err := r.telemetryLayers(res, tenants[0].fx, sys); err != nil {
		return err
	}

	// Counters the daemon kept during the socket phases.
	sc := m.scrape
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	hits, misses := sc["deeprest_estimate_cache_hits_total"], sc["deeprest_estimate_cache_misses_total"]
	res.set("service.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	res.set("service.dedup_hits", sc["deeprest_estimate_cache_dedup_hits_total"], "count")
	res.set("service.batch_size_mean", ratio(sc["deeprest_estimate_batched_requests_total"], sc["deeprest_estimate_batches_total"]), "count")
	res.set("service.shed_total", sc["deeprest_http_shed_total"], "count")
	res.set("fleet.shed_429_total", float64(m.got429), "count")

	// The load generator's own account, and what the socket phases cannot
	// report as end-to-end metrics (see README: demoted metrics).
	sent, ok, failed := 0, 0, 0
	for _, p := range m.phases() {
		sent, ok, failed = sent+p.rec.sent(), ok+p.rec.ok(), failed+p.rec.failed
	}
	res.set("loadgen.sent", float64(sent), "count")
	res.set("loadgen.ok", float64(ok), "count")
	res.set("loadgen.failed", float64(failed), "count")
	res.set("loadgen.sched_lag_p99_ms", lagP99, "ms")
	res.set("loadgen.cpu_s", m.selfCPU, "s")
	res.set("failed_share", ratio(float64(res.Failed), float64(res.Attempted)), "ratio")
	// Tail latencies of the open-loop reads; 0 when the phase has too few
	// samples to support the percentile.
	p90, _ := pick(m.open.rec.lat, 90)
	p99, _ := pick(m.open.rec.lat, 99)
	res.set("latency_p90_ms", p90, "ms")
	res.set("latency_p99_ms", p99, "ms")
	learns := []float64{st.Learn}
	if r.def.learnBeside {
		learns = m.learns
	}
	res.set("learn_s", median(learns), "s")
	res.set("ingest_p50_ms", tenantMedians(m.pushLat, make([]int, len(m.pushLat))), "ms")
	res.set("sanity_p50_ms", tenantMedians(m.sanityLat, make([]int, len(m.sanityLat))), "ms")
	res.set("ingest_windows_per_s", st.IngestWPS, "windows/s")
	res.set("throughput_rps", median(m.column(func(rd round) float64 { return rd.Throughput })), "req/s")
	res.set("sim.run_ms", st.SimMs, "ms")
	res.set("topo.generate_ms", st.TopoMs, "ms")

	return tr.write(filepath.Join(r.outDir, r.def.name+".spans.json"))
}

// engineLayers times the inference engine and the eval tape on one series
// and computes the operation counts of one request from the model's shape.
func (r *runner) engineLayers(res *result, sys *core.System, series []features.Vector) error {
	eng := sys.Engine()
	if eng == nil {
		return errors.New("traced run: the system has no compiled engine")
	}
	var err error
	var own *infer.Engine
	res.set("infer.compile_ms", timeN(3, func() { own, err = infer.Compile(sys.Model()) }), "ms")
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	own.SetPool(nil) // expert passes inline on the calling goroutine
	res.set("infer.predict_1worker_ms", timeN(5, func() { _, err = own.Predict(series) }), "ms")
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	batch := make([][]features.Vector, 8)
	for i := range batch {
		batch[i] = series
	}
	res.set("infer.predict_batch8_ms_per_req", timeN(3, func() { _, err = eng.PredictBatch(batch) })/8, "ms")
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	var ms0, ms1 runtime.MemStats
	const n = 10
	runtime.ReadMemStats(&ms0)
	for i := 0; i < n; i++ {
		if _, err := eng.Predict(series); err != nil {
			return fmt.Errorf("traced run: %w", err)
		}
	}
	runtime.ReadMemStats(&ms1)
	res.set("infer.predict_allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/n, "count")
	res.set("infer.predict_bytes_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/n, "B")
	res.set("estimator.tape_predict_ms", timeN(3, func() { _, err = sys.Model().PredictVectors(series) }), "ms")
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}

	// Operation counts, computed from tensor shapes (not measured): per
	// expert and window the engine applies the mask twice, one GRU step,
	// the peer scan, the head and the bypass.
	model := sys.Model()
	P, D, H, T := float64(len(model.Pairs)), float64(model.Space.Dim()), float64(r.def.hidden), float64(len(series))
	peers := 0.0
	for _, p := range model.Pairs {
		if ex := model.Experts[p]; ex.UseAttention && ex.Attn != nil {
			peers += float64(len(ex.Attn.Peers))
		}
	}
	gru := P * (6*H*(D+H) + 10*H)
	peer := 2 * H * peers
	rest := P * (2*D + 12*H + 6*D)
	res.set("infer.flops_per_req", T*(gru+peer+rest), "flop")
	res.set("infer.flops_gru_share", gru/(gru+peer+rest), "ratio")
	res.set("infer.flops_peer_share", peer/(gru+peer+rest), "ratio")
	params := P*(3*(H*D+H*H+H)+6*H+3+D+3*D+3) + peers
	res.set("infer.param_mb", params*8/1e6, "MB")
	res.set("features.dim", D, "count")
	return nil
}

// telemetryLayers times the write path's public calls on the first
// tenant's pushed telemetry: parsing a stream, appending a window with
// record-time extraction, reading cached features, shadow-scoring a chunk,
// and the anomaly detector of a sanity check.
func (r *runner) telemetryLayers(res *result, fx *fixture, sys *core.System) error {
	var importMs, recordUs []float64
	store, err := mirrorStore(fx, 1)
	if err != nil {
		return err
	}
	store.SetExtractor(1, sys.Extractor())
	for _, chunk := range fx.chunks[1:] {
		t0 := time.Now()
		_, windows, err := importChunk(chunk)
		if err != nil {
			return err
		}
		importMs = append(importMs, ms(time.Since(t0))/chunkWindows)
		for _, wr := range windows {
			t0 := time.Now()
			store.Record(wr)
			recordUs = append(recordUs, ms(time.Since(t0))*1000)
		}
	}
	res.set("telemetry.import_json_ms_per_window", median(importMs), "ms")
	res.set("telemetry.record_us_per_window", median(recordUs), "us")

	n := store.NumWindows()
	var series []features.Vector
	perWindow := timeN(5, func() { series, err = store.Features(1, sys.Extractor(), 0, n) }) * 1000 / float64(n)
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	res.set("telemetry.features_cached_us_per_window", perWindow, "us")

	scorer := quality.New(quality.Config{}, quality.Deps{
		Source: store,
		Active: func() (int, *core.System) { return 1, sys },
	})
	t0 := time.Now()
	scored := scorer.CatchUp(context.Background())
	if scored == 0 {
		return errors.New("traced run: the shadow scorer scored no window")
	}
	res.set("quality.catchup_ms_per_window", ms(time.Since(t0))/float64(scored), "ms")

	expected, err := sys.ExpectedUtilizationVectors(series[:sanityWindows])
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	actual := make(map[app.Pair][]float64, len(expected))
	for p := range expected {
		if actual[p], err = store.Metric(p, 0, sanityWindows); err != nil {
			return fmt.Errorf("traced run: %w", err)
		}
	}
	res.set("anomaly.detect_ms", timeN(5, func() { _, err = anomaly.NewDetector().Detect(actual, expected) }), "ms")
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	return nil
}
