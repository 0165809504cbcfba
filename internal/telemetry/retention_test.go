package telemetry

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/app"
	"repro/internal/features"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

var cpuA = app.Pair{Component: "A", Resource: app.CPU}

func evictedValue(reg *obs.Registry) uint64 {
	return reg.Counter("deeprest_telemetry_evicted_total",
		"Telemetry windows evicted past the retention horizon.").Value()
}

func residentValue(reg *obs.Registry) float64 {
	return reg.Gauge("deeprest_telemetry_resident_windows",
		"Telemetry windows currently resident in the store.").Value()
}

// seqWindow returns a window whose request count and metric encode the
// absolute window index i, so eviction alignment is checkable.
func seqWindow(i int) sim.WindowResult {
	root := trace.NewSpan("A", "op")
	root.Child("B", "sub")
	return sim.WindowResult{
		Batches: []trace.Batch{{Trace: trace.Trace{API: "/x", Root: root}, Count: i + 1}},
		Usage:   sim.Usage{cpuA: float64(i)},
	}
}

func TestRetentionBoundary(t *testing.T) {
	const horizon = 4
	reg := obs.NewRegistry()
	s := NewServer(60)
	s.SetRetention(horizon)
	s.Instrument(reg)

	// Fill up to the horizon: nothing evicts.
	for i := 0; i < horizon; i++ {
		s.Record(seqWindow(i))
	}
	if got := s.OldestWindow(); got != 0 {
		t.Fatalf("OldestWindow at capacity = %d, want 0", got)
	}
	if got := evictedValue(reg); got != 0 {
		t.Fatalf("evicted at capacity = %d, want 0", got)
	}

	// One more window evicts exactly the oldest.
	s.Record(seqWindow(horizon))
	if got := s.OldestWindow(); got != 1 {
		t.Fatalf("OldestWindow after first eviction = %d, want 1", got)
	}
	if got := s.NumWindows(); got != horizon+1 {
		t.Fatalf("NumWindows = %d, want %d (absolute indices keep counting)", got, horizon+1)
	}
	if got := s.ResidentWindows(); got != horizon {
		t.Fatalf("ResidentWindows = %d, want %d", got, horizon)
	}
	if got := evictedValue(reg); got != 1 {
		t.Fatalf("evicted = %d, want 1", got)
	}
	if got := residentValue(reg); got != horizon {
		t.Fatalf("resident gauge = %v, want %d", got, horizon)
	}

	// Reads below the horizon fail loudly.
	if _, err := s.Traces(0, s.NumWindows()); err == nil || !strings.Contains(err.Error(), "retention") {
		t.Fatalf("Traces below horizon: err = %v, want retention error", err)
	}
	if _, err := s.Metric(cpuA, 0, 2); err == nil || !strings.Contains(err.Error(), "retention") {
		t.Fatalf("Metric below horizon: err = %v, want retention error", err)
	}

	// Retained windows keep their absolute alignment: metric value i at
	// absolute window i, trace batch count i+1.
	from, to := s.OldestWindow(), s.NumWindows()
	series, err := s.Metric(cpuA, from, to)
	if err != nil {
		t.Fatal(err)
	}
	traces, err := s.Traces(from, to)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < to-from; k++ {
		abs := from + k
		if series[k] != float64(abs) {
			t.Fatalf("metric[%d] = %v, want %d (metrics misaligned with eviction)", abs, series[k], abs)
		}
		if got := traces[k][0].Count; got != abs+1 {
			t.Fatalf("trace count[%d] = %d, want %d (traces misaligned with eviction)", abs, got, abs+1)
		}
	}
}

// TestRetentionBoundsMemory is the memory-bound proof: ingesting many more
// windows than the horizon leaves resident window count, the trace slice,
// the feature cache, and every metric series at or below the horizon, while
// the retained range still reads back exactly what an unbounded store holds
// for the same absolute windows.
func TestRetentionBoundsMemory(t *testing.T) {
	const horizon = 16
	const total = 10 * horizon

	bounded := NewServer(60)
	bounded.SetRetention(horizon)
	unbounded := NewServer(60)
	for i := 0; i < total; i++ {
		bounded.Record(seqWindow(i))
		unbounded.Record(seqWindow(i))
	}

	// White-box bounds on the actual resident state.
	bounded.mu.RLock()
	if len(bounded.traces) > horizon {
		t.Errorf("len(traces) = %d, exceeds horizon %d", len(bounded.traces), horizon)
	}
	if len(bounded.feats) > horizon {
		t.Errorf("len(feats) = %d, exceeds horizon %d", len(bounded.feats), horizon)
	}
	for p, series := range bounded.metrics {
		if len(series) > horizon {
			t.Errorf("len(metrics[%s]) = %d, exceeds horizon %d", p, len(series), horizon)
		}
	}
	bounded.mu.RUnlock()
	if got := bounded.ResidentWindows(); got != horizon {
		t.Errorf("ResidentWindows = %d, want %d", got, horizon)
	}
	if got, want := bounded.NumWindows(), unbounded.NumWindows(); got != want {
		t.Errorf("NumWindows = %d, want %d", got, want)
	}

	// The retained range is bit-identical to the unbounded store's view of
	// the same absolute windows.
	from, to := bounded.OldestWindow(), bounded.NumWindows()
	bm, err := bounded.Metrics(from, to)
	if err != nil {
		t.Fatal(err)
	}
	um, err := unbounded.Metrics(from, to)
	if err != nil {
		t.Fatal(err)
	}
	if len(bm) != len(um) {
		t.Fatalf("pair sets differ: %d vs %d", len(bm), len(um))
	}
	for p, bs := range bm {
		for i := range bs {
			if math.Float64bits(bs[i]) != math.Float64bits(um[p][i]) {
				t.Fatalf("metric %s window %d: %v != %v", p, from+i, bs[i], um[p][i])
			}
		}
	}
	bt, err := bounded.Traces(from, to)
	if err != nil {
		t.Fatal(err)
	}
	ut, err := unbounded.Traces(from, to)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bt {
		if len(bt[i]) != len(ut[i]) || bt[i][0].Count != ut[i][0].Count {
			t.Fatalf("trace window %d differs between bounded and unbounded store", from+i)
		}
	}
}

func TestFeatureCacheExtractsOncePerWindow(t *testing.T) {
	sp := features.NewSpace([][]trace.Batch{seqWindow(0).Batches})
	var calls atomic.Int64
	counting := func(w []trace.Batch) features.Vector {
		calls.Add(1)
		return sp.Extract(w)
	}

	s := NewServer(60)
	s.SetExtractor(1, counting)
	const n = 8
	for i := 0; i < n; i++ {
		s.Record(seqWindow(i))
	}
	if got := calls.Load(); got != n {
		t.Fatalf("Record-time extractions = %d, want %d", got, n)
	}

	// Reads for the same generation are pure cache hits.
	series, err := s.Features(1, counting, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != n {
		t.Fatalf("extractions after cached read = %d, want %d (re-extracted on read)", got, n)
	}
	// Cached vectors match direct extraction bit for bit.
	traces, _ := s.Traces(0, n)
	for i, v := range series {
		direct := sp.Extract(traces[i])
		if len(v.Counts) != len(direct.Counts) || v.Unknown != direct.Unknown {
			t.Fatalf("window %d: cached vector shape differs from direct extraction", i)
		}
		for d := range v.Counts {
			if math.Float64bits(v.Counts[d]) != math.Float64bits(direct.Counts[d]) {
				t.Fatalf("window %d dim %d: cached %v != direct %v", i, d, v.Counts[d], direct.Counts[d])
			}
		}
	}

	// A generation swap invalidates: the first read re-extracts each
	// resident window once, after which reads are cached again.
	s.SetExtractor(2, counting)
	if _, err := s.Features(2, counting, 0, n); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2*n {
		t.Fatalf("extractions after generation swap = %d, want %d", got, 2*n)
	}
	if _, err := s.Features(2, counting, 0, n); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2*n {
		t.Fatalf("extractions after warm re-read = %d, want %d", got, 2*n)
	}
}

// TestConcurrentRecordReadEvict hammers Record, range reads, feature reads,
// and eviction concurrently; run under -race it is the store's memory-model
// proof. Readers tolerate retention-horizon errors (the range can be
// evicted between observing the bounds and reading), but never a torn or
// misaligned result.
func TestConcurrentRecordReadEvict(t *testing.T) {
	const horizon = 24
	sp := features.NewSpace([][]trace.Batch{seqWindow(0).Batches})
	fn := func(w []trace.Batch) features.Vector { return sp.Extract(w) }

	s := NewServer(60)
	s.SetRetention(horizon)
	s.SetExtractor(1, fn)
	s.Instrument(obs.NewRegistry())

	const writers = 4
	const perWriter = 150
	var wg sync.WaitGroup
	stop := make(chan struct{})

	var next atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.Record(seqWindow(int(next.Add(1))))
			}
		}()
	}

	readErr := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				from, to := s.OldestWindow(), s.NumWindows()
				if to-from < 2 {
					continue
				}
				if _, err := s.Traces(from, to); err != nil && !strings.Contains(err.Error(), "retention") {
					readErr <- fmt.Errorf("Traces: %v", err)
					return
				}
				if _, err := s.Metric(cpuA, from, to); err != nil &&
					!strings.Contains(err.Error(), "retention") && !strings.Contains(err.Error(), "no metric") {
					readErr <- fmt.Errorf("Metric: %v", err)
					return
				}
				gen := 1 + r%2 // readers alternate generations to race cache fills
				if _, err := s.Features(gen, fn, from, to); err != nil && !strings.Contains(err.Error(), "retention") {
					readErr <- fmt.Errorf("Features: %v", err)
					return
				}
			}
		}(r)
	}

	// Wait for the writers, then stop the readers.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	writersDone := make(chan struct{})
	go func() {
		for s.NumWindows() < writers*perWriter {
			select {
			case <-done:
				return
			default:
			}
		}
		close(writersDone)
	}()
	select {
	case err := <-readErr:
		close(stop)
		t.Fatal(err)
	case <-writersDone:
	}
	close(stop)
	<-done

	if got := s.ResidentWindows(); got != horizon {
		t.Fatalf("ResidentWindows = %d, want %d", got, horizon)
	}
	if got := s.NumWindows(); got != writers*perWriter {
		t.Fatalf("NumWindows = %d, want %d", got, writers*perWriter)
	}
	from, to := s.OldestWindow(), s.NumWindows()
	if _, err := s.Traces(from, to); err != nil {
		t.Fatalf("final read: %v", err)
	}
}
