// Package telemetry is the in-cluster observability stand-in for the
// paper's Jaeger + Prometheus deployment: a windowed store of distributed
// traces and resource metrics that DeepRest queries during the application
// learning phase and at sanity-check time.
//
// The store is safe for concurrent use: a scraper goroutine can Record
// windows while DeepRest reads ranges.
//
// # Retention
//
// A long-running deployment cannot append windows forever. With a retention
// horizon set (SetRetention), the store behaves as a ring buffer over
// windows: once more than `retention` windows are resident, the oldest are
// evicted — traces and every metric series drop the same windows in
// lockstep, so ranges stay aligned. Window indices are absolute and
// monotone: NumWindows keeps counting every window ever recorded, and
// OldestWindow reports the first index still resident. Reads below the
// horizon fail with a range error instead of silently returning shifted
// data.
//
// # Incremental feature extraction
//
// Re-walking every span of every retained trace on each query is the other
// unbounded cost of a naive store. With an extractor installed
// (SetExtractor), each window's feature vector is computed once — at Record
// time, before the store lock is taken — and cached alongside the raw
// batches, keyed by the model generation whose feature space produced it.
// Features serves ranges from that cache and lazily re-extracts only the
// windows whose cached generation does not match (e.g. after a
// continuous-learning generation swap installed a new feature space).
package telemetry

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/app"
	"repro/internal/features"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Extractor turns one window of trace batches into its feature vector. The
// continuous-learning pipeline installs the active generation's extractor
// (feature space plus optional anonymisation) via SetExtractor.
type Extractor = func([]trace.Batch) features.Vector

// featEntry is the cached feature vector of one resident window.
type featEntry struct {
	// gen identifies the feature space (model generation) that produced
	// vec; a read for a different generation re-extracts.
	gen int
	vec features.Vector
	ok  bool
}

// Server stores aligned windows of trace batches and resource metrics.
type Server struct {
	mu            sync.RWMutex
	windowSeconds float64

	// retention bounds resident windows (0 = unbounded); base is the
	// absolute index of the oldest resident window. traces[i], feats[i],
	// and metrics[p][i] all describe absolute window base+i.
	retention int
	base      int
	traces    [][]trace.Batch
	feats     []featEntry
	metrics   map[app.Pair][]float64

	// extractor powers eager Record-time feature extraction; extractorGen
	// keys the cache entries it produces.
	extractor    Extractor
	extractorGen int

	// Ingestion metrics; nil (no-op) until Instrument is called.
	instrumented  bool
	windowsTotal  *obs.Counter
	spansTotal    *obs.Counter
	requestsTotal *obs.Counter
	evictedTotal  *obs.Counter
	residentGauge *obs.Gauge
	extractsTotal *obs.Counter

	// tracer records "telemetry.extract" stage spans around eager
	// Record-time feature extraction (nil-safe no-op).
	tracer *obs.SpanTracer
}

// Instrument registers ingestion-volume counters on reg and counts every
// window currently resident in the store, so attaching after an import loses
// nothing. A nil registry leaves the server uninstrumented (the counters
// stay no-op). Instrument is idempotent: repeated calls keep the handles of
// the first call and never re-add the resident windows to the counters.
func (s *Server) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.instrumented {
		return
	}
	s.instrumented = true
	s.windowsTotal = reg.Counter("deeprest_telemetry_windows_total",
		"Telemetry windows ingested into the store.")
	s.spansTotal = reg.Counter("deeprest_telemetry_spans_total",
		"Trace spans ingested (batches expanded by request count).")
	s.requestsTotal = reg.Counter("deeprest_telemetry_requests_total",
		"Traced requests ingested.")
	s.evictedTotal = reg.Counter("deeprest_telemetry_evicted_total",
		"Telemetry windows evicted past the retention horizon.")
	s.residentGauge = reg.Gauge("deeprest_telemetry_resident_windows",
		"Telemetry windows currently resident in the store.")
	s.extractsTotal = reg.Counter("deeprest_telemetry_feature_extractions_total",
		"Window feature extractions performed (Record-time plus cache fills).")
	s.countLocked(s.traces)
	s.residentGauge.Set(float64(len(s.traces)))
}

// countLocked adds windows to the ingestion-volume counters. Callers must
// hold s.mu.
func (s *Server) countLocked(windows [][]trace.Batch) {
	s.windowsTotal.Add(uint64(len(windows)))
	for _, w := range windows {
		wr := sim.WindowResult{Batches: w}
		s.spansTotal.Add(uint64(wr.NumSpans()))
		s.requestsTotal.Add(uint64(wr.NumRequests()))
	}
}

// SetTracer installs the stage tracer recording feature-extraction spans.
func (s *Server) SetTracer(tr *obs.SpanTracer) {
	s.mu.Lock()
	s.tracer = tr
	s.mu.Unlock()
}

// NewServer returns an empty, unbounded telemetry server with the given
// scrape window duration in seconds; 0 leaves it to the first Append.
func NewServer(windowSeconds float64) *Server {
	return &Server{
		windowSeconds: windowSeconds,
		metrics:       make(map[app.Pair][]float64),
	}
}

// WindowSeconds returns the scrape window duration.
func (s *Server) WindowSeconds() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.windowSeconds
}

// SetRetention bounds the store to the most recent n windows (0 restores
// unbounded growth). If more than n windows are already resident the oldest
// are evicted immediately.
func (s *Server) SetRetention(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n < 0 {
		n = 0
	}
	s.retention = n
	s.evictLocked()
}

// SetExtractor installs the feature extractor used for eager extraction at
// Record time; gen identifies the feature space (model generation) so later
// Features reads can tell cached vectors of an old generation from current
// ones. A nil fn disables eager extraction.
func (s *Server) SetExtractor(gen int, fn Extractor) {
	s.mu.Lock()
	s.extractorGen, s.extractor = gen, fn
	s.mu.Unlock()
}

// ExtractorGen reports the generation of the installed Record-time
// extractor (0 when none was ever installed).
func (s *Server) ExtractorGen() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.extractorGen
}

// Record appends one window of telemetry. With an extractor installed the
// window's feature vector is computed here — once, outside the store lock —
// so queries never have to re-walk the trace batches. The whole call is
// O(window): appending is amortised O(1) and eviction drops at most one
// window.
func (s *Server) Record(wr sim.WindowResult) {
	var fe [1]featEntry
	_ = s.appendWindows(0, [][]trace.Batch{wr.Batches}, fe[:], func(at int) {
		for p, v := range wr.Usage {
			s.extendLocked(p, at, v)
		}
	})
}

// RecordRun appends every window of a simulation run.
func (s *Server) RecordRun(r *sim.Run) {
	_ = s.appendWindows(0, r.Windows, make([]featEntry, len(r.Windows)), func(at int) {
		for p, vs := range r.Usage {
			s.extendLocked(p, at, vs...)
		}
	})
}

// Append splices every resident window of in — a parsed stream, not s itself
// — onto s in one step, so two concurrent streams never interleave. A store
// built without a window duration adopts the first stream's; after that a
// stream that disagrees is refused and nothing is appended.
func (s *Server) Append(in *Server) error {
	in.mu.RLock()
	defer in.mu.RUnlock()
	if in.windowSeconds <= 0 {
		return fmt.Errorf("telemetry: invalid window duration %v", in.windowSeconds)
	}
	return s.appendWindows(in.windowSeconds, in.traces, make([]featEntry, len(in.traces)), func(at int) {
		for p, vs := range in.metrics {
			s.extendLocked(p, at, vs...)
		}
	})
}

// appendWindows is the one append body. Feature extraction runs first,
// outside the lock, into fes (the caller's scratch, one entry per window, so
// a lone Record allocates nothing but its vector); then one critical section
// checks the window duration (0 = the caller states none), splices traces
// and cache entries, lets usage extend each pair's series from resident
// offset at, and pads and evicts.
func (s *Server) appendWindows(windowSeconds float64, windows [][]trace.Batch, fes []featEntry, usage func(at int)) error {
	s.mu.RLock()
	gen, fn, tr := s.extractorGen, s.extractor, s.tracer
	s.mu.RUnlock()
	if fn != nil {
		_, span := tr.Start(context.Background(), "telemetry.extract")
		span.SetWindows(len(windows))
		for i, w := range windows {
			fes[i] = featEntry{gen: gen, vec: fn(w), ok: true}
		}
		span.End()
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case windowSeconds == 0 || windowSeconds == s.windowSeconds:
	case s.windowSeconds == 0:
		s.windowSeconds = windowSeconds
	default:
		return fmt.Errorf("telemetry: window duration %vs does not match existing store (%vs)", windowSeconds, s.windowSeconds)
	}
	if fn != nil {
		s.extractsTotal.Add(uint64(len(windows)))
	}
	at := len(s.traces)
	s.traces = append(s.traces, windows...)
	s.feats = append(s.feats, fes...)
	s.countLocked(windows)
	usage(at)
	s.padMetricsLocked(at + len(windows))
	s.evictLocked()
	return nil
}

// extendLocked appends vs to p's series, the first of them at resident
// offset at: a pair first seen now is zero-filled up to there. Callers must
// hold s.mu.
func (s *Server) extendLocked(p app.Pair, at int, vs ...float64) {
	series := s.metrics[p]
	for len(series) < at {
		series = append(series, 0)
	}
	s.metrics[p] = append(series, vs...)
}

// padMetricsLocked zero-fills every metric series to n values so pairs
// absent from newly recorded windows stay aligned with the trace ring: a
// pair missing from a window means zero observed usage, and both the range
// reads and eviction re-slice all series by trace-ring offsets, so a short
// series would panic them. Callers must hold s.mu.
func (s *Server) padMetricsLocked(n int) {
	for p, series := range s.metrics {
		for len(series) < n {
			series = append(series, 0)
		}
		s.metrics[p] = series
	}
}

// evictLocked drops the oldest windows beyond the retention horizon —
// traces, cached features, and every metric series in lockstep. The slices
// are re-sliced forward (evicted trace payloads are nil'ed so they can be
// collected immediately); appends reallocate the backing arrays once their
// capacity is consumed, so resident memory stays O(retention) without a
// compaction pass. Callers must hold s.mu.
func (s *Server) evictLocked() {
	if s.retention <= 0 {
		return
	}
	excess := len(s.traces) - s.retention
	if excess <= 0 {
		if s.residentGauge != nil {
			s.residentGauge.Set(float64(len(s.traces)))
		}
		return
	}
	s.base += excess
	for i := 0; i < excess; i++ {
		s.traces[i] = nil
		s.feats[i] = featEntry{}
	}
	s.traces = s.traces[excess:]
	s.feats = s.feats[excess:]
	for p, series := range s.metrics {
		s.metrics[p] = series[excess:]
	}
	s.evictedTotal.Add(uint64(excess))
	if s.residentGauge != nil {
		s.residentGauge.Set(float64(len(s.traces)))
	}
}

// NumWindows returns the absolute number of windows ever recorded; window
// indices are absolute, so valid read ranges are [OldestWindow, NumWindows).
func (s *Server) NumWindows() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.base + len(s.traces)
}

// OldestWindow returns the absolute index of the oldest resident window
// (0 until retention evicts anything).
func (s *Server) OldestWindow() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.base
}

// ResidentWindows returns the number of windows currently held in memory.
func (s *Server) ResidentWindows() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.traces)
}

// Traces returns the trace batches of windows [from, to).
func (s *Server) Traces(from, to int) ([][]trace.Batch, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.checkRange(from, to); err != nil {
		return nil, err
	}
	out := make([][]trace.Batch, to-from)
	copy(out, s.traces[from-s.base:to-s.base])
	return out, nil
}

// Metric returns the utilization series of pair p over windows [from, to).
func (s *Server) Metric(p app.Pair, from, to int) ([]float64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.checkRange(from, to); err != nil {
		return nil, err
	}
	series, ok := s.metrics[p]
	if !ok {
		return nil, fmt.Errorf("telemetry: no metric recorded for %s", p)
	}
	out := make([]float64, to-from)
	copy(out, series[from-s.base:to-s.base])
	return out, nil
}

// Metrics returns all series over windows [from, to), keyed by pair.
func (s *Server) Metrics(from, to int) (map[app.Pair][]float64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.checkRange(from, to); err != nil {
		return nil, err
	}
	out := make(map[app.Pair][]float64, len(s.metrics))
	for p, series := range s.metrics {
		cp := make([]float64, to-from)
		copy(cp, series[from-s.base:to-s.base])
		out[p] = cp
	}
	return out, nil
}

// Features returns the feature vectors of windows [from, to) for the given
// generation, serving cached vectors where possible. Windows whose cached
// vector belongs to a different generation (or was never extracted) are
// re-extracted with fn — outside the store lock — and the results are
// written back to the cache, so a generation swap costs one extraction pass
// over the resident range instead of one per query forever after.
//
// The returned vectors are shared with the cache: callers must treat
// Counts as read-only.
func (s *Server) Features(gen int, fn Extractor, from, to int) ([]features.Vector, error) {
	if fn == nil {
		return nil, fmt.Errorf("telemetry: nil feature extractor")
	}
	s.mu.RLock()
	if err := s.checkRange(from, to); err != nil {
		s.mu.RUnlock()
		return nil, err
	}
	out := make([]features.Vector, to-from)
	var missing []int // absolute window indices needing extraction
	var raw [][]trace.Batch
	for i := from; i < to; i++ {
		e := s.feats[i-s.base]
		if e.ok && e.gen == gen {
			out[i-from] = e.vec
		} else {
			missing = append(missing, i)
			raw = append(raw, s.traces[i-s.base])
		}
	}
	s.mu.RUnlock()
	if len(missing) == 0 {
		return out, nil
	}

	for k, idx := range missing {
		out[idx-from] = fn(raw[k])
	}
	s.extractsTotal.Add(uint64(len(missing)))

	// Write back; windows evicted while extracting are simply skipped.
	s.mu.Lock()
	for _, idx := range missing {
		if idx >= s.base && idx-s.base < len(s.feats) {
			s.feats[idx-s.base] = featEntry{gen: gen, vec: out[idx-from], ok: true}
		}
	}
	s.mu.Unlock()
	return out, nil
}

func (s *Server) checkRange(from, to int) error {
	if from < s.base {
		return fmt.Errorf("telemetry: window range [%d, %d) reaches below the retention horizon (oldest resident window is %d)", from, to, s.base)
	}
	if to > s.base+len(s.traces) || from > to {
		return fmt.Errorf("telemetry: window range [%d, %d) out of bounds (windows [%d, %d) resident)", from, to, s.base, s.base+len(s.traces))
	}
	return nil
}
