package obs

import (
	"runtime/metrics"
	"sync"
)

// runtimeCollector copies the Go runtime's own account of the process into
// the registry when /metrics is scraped. The runtime reports totals; the
// counter and the histogram are advanced by what was added since the
// previous scrape.
type runtimeCollector struct {
	mu      sync.Mutex
	samples []metrics.Sample // four gauges, then GC cycles, then GC pauses
	gauges  []*Gauge
	cycles  *Counter
	pause   *Histogram
	counted uint64   // GC cycles already added
	paused  []uint64 // pauses already observed, per runtime bucket
}

// RegisterRuntime exports what the memory and soak questions need from the
// Go runtime — live heap, the heap goal the next collection is paced
// against, memory handed back to the OS, goroutines, GC cycles and
// stop-the-world pauses — read from runtime/metrics at scrape time, never on
// a timer. The series are per-process: they register through the root view.
// A nil registry is a no-op and registration is idempotent, like the rest of
// the package.
func RegisterRuntime(reg *Registry) {
	if reg == nil {
		return
	}
	reg = reg.Root()
	c := &runtimeCollector{
		samples: []metrics.Sample{
			{Name: "/gc/heap/live:bytes"},
			{Name: "/gc/heap/goal:bytes"},
			{Name: "/memory/classes/heap/released:bytes"},
			{Name: "/sched/goroutines:goroutines"},
			{Name: "/gc/cycles/total:gc-cycles"},
			{Name: "/sched/pauses/total/gc:seconds"},
		},
		gauges: []*Gauge{
			reg.Gauge("deeprest_go_heap_live_bytes", "Heap memory occupied by objects the last garbage collection found live."),
			reg.Gauge("deeprest_go_heap_goal_bytes", "Heap size the garbage collector lets the process reach before the next cycle ends."),
			reg.Gauge("deeprest_go_heap_released_bytes", "Heap memory returned to the operating system."),
			reg.Gauge("deeprest_go_goroutines", "Live goroutines."),
		},
		cycles: reg.Counter("deeprest_go_gc_cycles_total", "Completed garbage collection cycles."),
		// 10 µs to 100 ms.
		pause: reg.Histogram("deeprest_go_gc_pause_seconds", "Stop-the-world pauses of the garbage collector.",
			[]float64{1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 1e-1}),
	}
	st := reg.state
	st.mu.Lock()
	if st.runtime == nil {
		st.runtime = c
	}
	st.mu.Unlock()
}

// collect reads the samples and brings the series up to date. A sample this
// runtime does not know has KindBad and is skipped.
func (c *runtimeCollector) collect() {
	c.mu.Lock()
	defer c.mu.Unlock()
	metrics.Read(c.samples)
	for i, g := range c.gauges {
		if v := c.samples[i].Value; v.Kind() == metrics.KindUint64 {
			g.Set(float64(v.Uint64()))
		}
	}
	if v := c.samples[len(c.gauges)].Value; v.Kind() == metrics.KindUint64 {
		c.cycles.Add(v.Uint64() - c.counted)
		c.counted = v.Uint64()
	}
	if v := c.samples[len(c.gauges)+1].Value; v.Kind() == metrics.KindFloat64Histogram {
		h := v.Float64Histogram()
		if c.paused == nil {
			c.paused = make([]uint64, len(h.Counts))
		}
		for i, n := range h.Counts {
			// A pause is observed at its runtime bucket's upper bound (the
			// lower one for the unbounded last bucket): it lands in the
			// right bucket here unless that bucket straddles one of ours.
			at := h.Buckets[i+1]
			if i == len(h.Counts)-1 {
				at = h.Buckets[i]
			}
			for ; c.paused[i] < n; c.paused[i]++ {
				c.pause.Observe(at)
			}
		}
	}
}
