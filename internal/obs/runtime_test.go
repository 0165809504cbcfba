package obs

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// TestRuntimeSeriesReadAtScrape: the runtime series exist only after
// RegisterRuntime, move with the process between two scrapes without double
// counting, stay unlabelled under a tenant view, and lint clean.
func TestRuntimeSeriesReadAtScrape(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntime(reg.WithConstLabels("app", "social"))
	RegisterRuntime(reg) // idempotent

	scrape := func() string {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if err := Lint(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("exposition fails Prometheus grammar: %v\n%s", err, buf.String())
		}
		return buf.String()
	}
	cycles := func() uint64 {
		return reg.Counter("deeprest_go_gc_cycles_total", "Completed garbage collection cycles.").Value()
	}

	runtime.GC()
	first := scrape()
	for _, want := range []string{
		"deeprest_go_heap_live_bytes ", "deeprest_go_heap_goal_bytes ", "deeprest_go_heap_released_bytes ",
		"deeprest_go_goroutines ", "deeprest_go_gc_cycles_total ", `deeprest_go_gc_pause_seconds_bucket{le="+Inf"} `,
	} {
		if !strings.Contains(first, "\n"+want) {
			t.Errorf("scrape is missing the unlabelled series %q", want)
		}
	}
	if v := reg.Gauge("deeprest_go_heap_live_bytes", "Heap memory occupied by objects the last garbage collection found live.").Value(); v <= 0 {
		t.Errorf("heap_live_bytes = %v after a collection", v)
	}
	before := cycles()
	if before == 0 {
		t.Fatal("no GC cycle counted after runtime.GC()")
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	scrape()
	runtime.ReadMemStats(&ms)
	if after := cycles(); after < before+2 || after > uint64(ms.NumGC) {
		t.Errorf("gc_cycles_total went %d → %d over two collections (runtime says %d in all)", before, after, ms.NumGC)
	}
	pauses := reg.Histogram("deeprest_go_gc_pause_seconds", "Stop-the-world pauses of the garbage collector.",
		[]float64{1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 1e-1})
	if n := pauses.Count(); n < cycles() || n > 4*uint64(ms.NumGC) {
		t.Errorf("%d pauses observed for %d cycles: each cycle stops the world at least once, and only a few times", n, cycles())
	}
}
