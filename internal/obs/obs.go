// Package obs is DeepRest's own observability layer: a dependency-free,
// concurrent metrics registry exposed in Prometheus text format.
//
// DeepRest *consumes* observability signals (traces and metrics) to estimate
// resources for other applications; this package makes the estimator itself
// measurable — request latencies on the serving endpoints, per-epoch training
// loss, generation publish times, drift scores — without pulling in any
// third-party client library (the repo is stdlib-only by policy).
//
// Three metric kinds are supported, matching the Prometheus data model:
//
//   - Counter: a monotonically increasing event count;
//   - Gauge: a value that goes up and down (in-flight requests, drift score);
//   - Histogram: fixed-bucket distribution with cumulative bucket counts,
//     sum, and count (request latencies, epoch durations).
//
// Each kind has a labelled variant (CounterVec, GaugeVec, HistogramVec) whose
// With method resolves one child series per label-value tuple.
//
// The whole API is nil-safe: every method on a nil *Registry returns a nil
// handle, and every operation on a nil handle is a no-op. Instrumented code
// therefore threads a single *Registry through its options and never guards
// call sites — a process that does not care about metrics passes nil and pays
// one predictable-branch nil check per operation.
//
// Registration is idempotent: asking for an existing name returns the same
// family, so independent subsystems may register shared metrics without
// coordination. Re-registering a name with a different type, help string, or
// label set panics — that is a programming error, not a runtime condition.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default latency buckets in seconds, tuned for HTTP
// handlers that range from tens of microseconds (status reads) to tens of
// seconds (training runs finishing inside a request).
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// DurationBuckets are coarse wall-clock buckets in seconds for background
// operations (training epochs, generation publishes): milliseconds to
// minutes.
var DurationBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60, 120, 300,
}

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

type metricType int

const (
	counterType metricType = iota
	gaugeType
	histogramType
)

func (t metricType) String() string {
	switch t {
	case counterType:
		return "counter"
	case gaugeType:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry holds metric families and renders them in Prometheus text format.
// All methods are safe for concurrent use. The zero value is not useful;
// a nil *Registry is: it hands out nil no-op handles.
//
// A Registry value is a *view* onto a shared family store: WithConstLabels
// derives a view that stamps a constant label pair onto every metric
// registered through it, while the exposition (Handler, WritePrometheus)
// always renders the whole store. Multi-tenant services use this to thread
// an `app` label through subsystems that register their metrics by plain
// name: each tenant instruments itself through its own labelled view, and
// all tenants' series land in the same families, distinguished by label.
type Registry struct {
	state *regState
	pre   []labelPair // constant labels prepended to every family
}

// regState is the family store shared by a registry and all its views.
type regState struct {
	mu       sync.RWMutex
	families map[string]*family
	runtime  *runtimeCollector // refreshed at every scrape; nil until RegisterRuntime
}

// labelPair is one constant name/value pair carried by a registry view.
type labelPair struct{ name, value string }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{state: &regState{families: make(map[string]*family)}}
}

// WithConstLabels derives a registry view that adds the given name/value
// pair as a leading constant label on every metric registered through it.
// Views share the underlying store: the base registry's exposition renders
// every view's series. Nested calls accumulate labels in call order.
func (r *Registry) WithConstLabels(name, value string) *Registry {
	if r == nil {
		return nil
	}
	if !labelRe.MatchString(name) || strings.HasPrefix(name, "__") {
		panic(fmt.Sprintf("obs: invalid constant label name %q", name))
	}
	pre := make([]labelPair, 0, len(r.pre)+1)
	pre = append(pre, r.pre...)
	pre = append(pre, labelPair{name, value})
	return &Registry{state: r.state, pre: pre}
}

// Root returns the registry without any constant labels — the view
// process-level metrics (build info) register through, so they stay
// unlabelled even when instrumented from inside a tenant-scoped component.
func (r *Registry) Root() *Registry {
	if r == nil || len(r.pre) == 0 {
		return r
	}
	return &Registry{state: r.state}
}

// preNames and preValues split the view's constant labels for registration
// and resolution.
func (r *Registry) preNames() []string {
	if len(r.pre) == 0 {
		return nil
	}
	out := make([]string, len(r.pre))
	for i, p := range r.pre {
		out[i] = p.name
	}
	return out
}

func (r *Registry) preValues() []string {
	if len(r.pre) == 0 {
		return nil
	}
	out := make([]string, len(r.pre))
	for i, p := range r.pre {
		out[i] = p.value
	}
	return out
}

// family is one named metric with a fixed type, help string, and label set.
type family struct {
	name    string
	help    string
	typ     metricType
	labels  []string
	buckets []float64 // histogram upper bounds, ascending, no +Inf

	mu       sync.RWMutex
	children map[string]*child // keyed by joined label values
}

// child is one series of a family: its label values plus the metric itself.
type child struct {
	values []string
	metric interface{} // *Counter | *Gauge | *Histogram
}

// family registers (or finds) a metric family, panicking on any mismatch
// with a previous registration of the same name. A view's constant label
// names are prepended to the declared label set, so every view of the same
// shape resolves to one shared family.
func (r *Registry) family(name, help string, typ metricType, buckets []float64, labels []string) *family {
	if r == nil {
		return nil
	}
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !labelRe.MatchString(l) || strings.HasPrefix(l, "__") {
			panic(fmt.Sprintf("obs: invalid label name %q for metric %q", l, name))
		}
	}
	labels = append(r.preNames(), labels...)
	st := r.state
	st.mu.Lock()
	defer st.mu.Unlock()
	if f, ok := st.families[name]; ok {
		if f.typ != typ || f.help != help || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different type, help, or labels", name))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		typ:      typ,
		labels:   append([]string(nil), labels...),
		buckets:  normalizeBuckets(buckets),
		children: make(map[string]*child),
	}
	st.families[name] = f
	return f
}

// normalizeBuckets sorts, deduplicates, and strips any +Inf terminal bucket
// (the exposition adds +Inf implicitly).
func normalizeBuckets(buckets []float64) []float64 {
	out := make([]float64, 0, len(buckets))
	for _, b := range buckets {
		if !math.IsInf(b, +1) {
			out = append(out, b)
		}
	}
	sort.Float64s(out)
	dedup := out[:0]
	for i, b := range out {
		if i == 0 || b != out[i-1] {
			dedup = append(dedup, b)
		}
	}
	return dedup
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// labelSep joins label values into a child key. It cannot collide for
// distinct tuples unless a label value itself contains the separator byte,
// which is not a printable character and never appears in our labels.
const labelSep = "\xff"

// resolve finds or creates the child series for the given label values.
func (f *family) resolve(values []string) interface{} {
	if f == nil {
		return nil
	}
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c.metric
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c.metric
	}
	var m interface{}
	switch f.typ {
	case counterType:
		m = &Counter{}
	case gaugeType:
		m = &Gauge{}
	case histogramType:
		m = newHistogram(f.buckets)
	}
	f.children[key] = &child{values: append([]string(nil), values...), metric: m}
	return m
}

// --- Counter ---

// Counter is a monotonically increasing event count. A nil Counter is a
// valid no-op.
type Counter struct {
	n atomic.Uint64
}

// Counter registers (or finds) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// CounterVec registers (or finds) a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	f := r.family(name, help, counterType, nil, labels)
	if f == nil {
		return nil
	}
	return &CounterVec{f, r.preValues()}
}

// CounterVec resolves label values to counters. A vec obtained through a
// labelled registry view curries the view's constant label values.
type CounterVec struct {
	f   *family
	pre []string
}

// With returns the counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	c, _ := v.f.resolve(joinValues(v.pre, values)).(*Counter)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increments by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.n.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// --- Gauge ---

// Gauge is a value that can go up and down. A nil Gauge is a valid no-op.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Gauge registers (or finds) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeVec(name, help).With()
}

// GaugeVec registers (or finds) a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	f := r.family(name, help, gaugeType, nil, labels)
	if f == nil {
		return nil
	}
	return &GaugeVec{f, r.preValues()}
}

// GaugeVec resolves label values to gauges. A vec obtained through a
// labelled registry view curries the view's constant label values.
type GaugeVec struct {
	f   *family
	pre []string
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	g, _ := v.f.resolve(joinValues(v.pre, values)).(*Gauge)
	return g
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adjusts the gauge by delta (negative to decrement).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// --- Histogram ---

// Histogram accumulates observations into fixed buckets. A nil Histogram is
// a valid no-op.
type Histogram struct {
	upper   []float64 // ascending; the implicit final bucket is +Inf
	counts  []atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(upper []float64) *Histogram {
	return &Histogram{upper: upper, counts: make([]atomic.Uint64, len(upper)+1)}
}

// Histogram registers (or finds) an unlabelled histogram with the given
// bucket upper bounds (+Inf is implicit; nil buckets use DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramVec(name, help, buckets).With()
}

// HistogramVec registers (or finds) a labelled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.family(name, help, histogramType, buckets, labels)
	if f == nil {
		return nil
	}
	return &HistogramVec{f, r.preValues()}
}

// HistogramVec resolves label values to histograms. A vec obtained through a
// labelled registry view curries the view's constant label values.
type HistogramVec struct {
	f   *family
	pre []string
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	h, _ := v.f.resolve(joinValues(v.pre, values)).(*Histogram)
	return h
}

// joinValues prepends a view's constant label values to the caller's.
func joinValues(pre, values []string) []string {
	if len(pre) == 0 {
		return values
	}
	out := make([]string, 0, len(pre)+len(values))
	out = append(out, pre...)
	return append(out, values...)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Latency distributions concentrate in the low buckets; a linear scan
	// over ~16 bounds beats binary search at this size and branch-predicts
	// almost perfectly.
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// snapshot returns per-bucket counts (exclusive, +Inf last), the sum, and
// the total count. The counts are loaded once so the cumulative series the
// exposition derives from them is internally consistent.
func (h *Histogram) snapshot() (counts []uint64, sum float64, total uint64) {
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		c := h.counts[i].Load()
		counts[i] = c
		total += c
	}
	return counts, math.Float64frombits(h.sumBits.Load()), total
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	_, _, total := h.snapshot()
	return total
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	_, sum, _ := h.snapshot()
	return sum
}
