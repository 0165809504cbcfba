package obs

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Stage tracing: the daemon's answer to "where does its own time go".
//
// DeepRest consumes distributed traces of *other* applications; SpanTracer
// records the daemon's own operational stages — ingest → extract → score →
// train → checkpoint → swap — as timed, hierarchical spans in a fixed-size
// in-process ring. It is deliberately not a distributed tracer: spans never
// leave the process, the buffer overwrites oldest-first, and recording one
// span costs two atomic ops plus a ring slot write.
//
// Span IDs follow the same determinism discipline as the fault schedules
// (internal/faults): each ID is the splitmix64 image of (seed, sequence
// number), a pure function with no shared RNG state, so a tracer built with
// a fixed seed mints bit-identical IDs for the same operation sequence —
// tests can golden them, and concurrent Start calls stay order-independent
// apart from which sequence number each draws.
//
// Parenting flows through context.Context: Start returns a derived context
// carrying the new span, and a later Start under that context records the
// parent-child edge. Code without a context (telemetry Record, checkpoint
// writes) starts root spans. slog records cross-link via SpanID(ctx).
//
// A nil *SpanTracer is valid and records nothing; every method on a nil
// *ActiveSpan is a no-op, so instrumented code threads the tracer without
// guards, exactly like the metrics handles in this package.

// Span is one completed stage record as exposed at /debug/spans.
type Span struct {
	// ID is the span's splitmix64-minted identity; Parent is the enclosing
	// span's ID (0 for roots).
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	// Name is the stage, e.g. "pipeline.train" or "service.ingest".
	Name string `json:"name"`
	// App is the tenant the stage ran for ("" for process-level stages or
	// single-tenant deployments); see SpanTracer.WithApp.
	App string `json:"app,omitempty"`
	// Start is the wall-clock begin; Duration the measured elapsed time.
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	// Windows optionally counts the telemetry windows the stage covered.
	Windows int `json:"windows,omitempty"`
	// Err carries the stage's failure, empty on success.
	Err string `json:"error,omitempty"`
}

// ActiveSpan is an in-flight stage; End completes it into the ring.
type ActiveSpan struct {
	tracer  *SpanTracer
	id      uint64
	parent  uint64
	name    string
	app     string
	start   time.Time
	windows int
	err     string
	done    atomic.Bool
}

// SpanTracer records completed spans into a fixed-size ring buffer. Like the
// metrics Registry, a SpanTracer value is a view onto a shared ring: WithApp
// derives a view that stamps a tenant id onto every span it starts, while
// Snapshot and Handler always cover the whole ring.
type SpanTracer struct {
	state *tracerRing
	app   string
}

// tracerRing is the span store shared by a tracer and all its views.
type tracerRing struct {
	seed uint64
	seq  atomic.Uint64

	mu   sync.Mutex
	ring []Span
	next int // ring write cursor
	n    int // spans resident (≤ len(ring))
}

// NewSpanTracer returns a tracer retaining the most recent capacity spans
// (minimum 16). Seed drives ID minting; a fixed seed gives reproducible IDs.
func NewSpanTracer(capacity int, seed uint64) *SpanTracer {
	if capacity < 16 {
		capacity = 16
	}
	return &SpanTracer{state: &tracerRing{seed: seed, ring: make([]Span, capacity)}}
}

// WithApp derives a tracer view that stamps the given tenant id onto every
// span it starts. Views share the ring, so a fleet's spans interleave in one
// buffer and /debug/spans can filter by ?app=.
func (t *SpanTracer) WithApp(app string) *SpanTracer {
	if t == nil {
		return nil
	}
	return &SpanTracer{state: t.state, app: app}
}

// spanKey is the context key carrying the active span.
type spanKey struct{}

// spanID mints the deterministic ID of sequence number seq: the splitmix64
// finalizer chained over (seed, seq), matching internal/faults' pure-hash
// discipline. Zero is reserved for "no span", so a vanishing image is bumped.
func (t *tracerRing) spanID(seq uint64) uint64 {
	id := mix64spans(mix64spans(t.seed) ^ seq)
	if id == 0 {
		id = 1
	}
	return id
}

// mix64spans is the splitmix64 finalizer (same constants as faults.mix64,
// duplicated rather than imported to keep obs dependency-free).
func mix64spans(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Start begins a span named name, parented to the span carried by ctx (root
// when none), and returns a derived context carrying the new span. On a nil
// tracer it returns ctx unchanged and a nil span.
func (t *SpanTracer) Start(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	if t == nil {
		return ctx, nil
	}
	s := &ActiveSpan{
		tracer: t,
		id:     t.state.spanID(t.state.seq.Add(1)),
		parent: SpanID(ctx),
		name:   name,
		app:    t.app,
		start:  time.Now(),
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// Stages returns a function that starts one stage of the operation whose span
// ctx carries — a child span named span — and returns the stage's end, which
// completes the span and observes its duration into seconds under label: one
// call site gives /debug/spans the tree and /metrics the histogram of the
// same intervals. Tracer and histogram may each be nil.
func (t *SpanTracer) Stages(ctx context.Context, seconds *HistogramVec) func(span, label string) (end func()) {
	return func(span, label string) func() {
		_, sp := t.Start(ctx, span)
		start := time.Now()
		return func() {
			sp.End()
			seconds.With(label).Observe(time.Since(start).Seconds())
		}
	}
}

// SpanID returns the ID of the span carried by ctx (0 when none) — the value
// slog records embed to cross-link log lines to /debug/spans entries.
func SpanID(ctx context.Context) uint64 {
	if ctx == nil {
		return 0
	}
	if s, ok := ctx.Value(spanKey{}).(*ActiveSpan); ok && s != nil {
		return s.id
	}
	return 0
}

// SetWindows annotates the span with the telemetry-window count it covered.
func (s *ActiveSpan) SetWindows(n int) {
	if s != nil {
		s.windows = n
	}
}

// SetErr records the stage's failure; a nil error clears nothing.
func (s *ActiveSpan) SetErr(err error) {
	if s != nil && err != nil {
		s.err = err.Error()
	}
}

// End completes the span into the tracer's ring. Idempotent: only the first
// End records.
func (s *ActiveSpan) End() {
	if s == nil || !s.done.CompareAndSwap(false, true) {
		return
	}
	rec := Span{
		ID: s.id, Parent: s.parent, Name: s.name, App: s.app,
		Start: s.start, Duration: time.Since(s.start),
		Windows: s.windows, Err: s.err,
	}
	t := s.tracer.state
	t.mu.Lock()
	t.ring[t.next] = rec
	t.next = (t.next + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
	t.mu.Unlock()
}

// Snapshot returns the resident spans, oldest first. Views share the ring,
// so a view's snapshot covers every app's spans.
func (t *SpanTracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	st := t.state
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]Span, 0, st.n)
	start := (st.next - st.n + len(st.ring)) % len(st.ring)
	for i := 0; i < st.n; i++ {
		out = append(out, st.ring[(start+i)%len(st.ring)])
	}
	return out
}

// spansPage is the /debug/spans JSON document.
type spansPage struct {
	Capacity int    `json:"capacity"`
	Spans    []Span `json:"spans"`
}

// Handler serves the span buffer as JSON at GET /debug/spans. Spans are
// emitted oldest first; ?name=prefix filters by span-name prefix and
// ?app=id by exact tenant id. Gated like pprof: callers mount it only on
// operator surfaces.
func (t *SpanTracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if t == nil {
			http.Error(w, `{"error":"stage tracing disabled"}`, http.StatusNotFound)
			return
		}
		spans := t.Snapshot()
		if prefix := r.URL.Query().Get("name"); prefix != "" {
			kept := spans[:0]
			for _, s := range spans {
				if len(s.Name) >= len(prefix) && s.Name[:len(prefix)] == prefix {
					kept = append(kept, s)
				}
			}
			spans = kept
		}
		if app := r.URL.Query().Get("app"); app != "" {
			kept := spans[:0]
			for _, s := range spans {
				if s.App == app {
					kept = append(kept, s)
				}
			}
			spans = kept
		}
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(spansPage{Capacity: len(t.state.ring), Spans: spans})
	})
}
