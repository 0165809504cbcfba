package telemetry

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/app"
	"repro/internal/features"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/testutil"
	"repro/internal/trace"
)

func TestRecordAndQuery(t *testing.T) {
	s := NewServer(60)
	if s.WindowSeconds() != 60 {
		t.Fatal("WindowSeconds not stored")
	}
	p := app.Pair{Component: "A", Resource: app.CPU}
	for i := 0; i < 4; i++ {
		s.Record(sim.WindowResult{
			Batches: []trace.Batch{{Trace: trace.Trace{API: "/x", Root: trace.NewSpan("A", "op")}, Count: i + 1}},
			Usage:   sim.Usage{p: float64(10 * i)},
		})
	}
	if s.NumWindows() != 4 {
		t.Fatalf("NumWindows = %d", s.NumWindows())
	}
	m, err := s.Metric(p, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || m[0] != 10 || m[1] != 20 {
		t.Fatalf("Metric = %v", m)
	}
	traces, err := s.Traces(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 4 || traces[3][0].Count != 4 {
		t.Fatalf("Traces = %v", traces)
	}
	all, err := s.Metrics(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || len(all[p]) != 4 {
		t.Fatalf("Metrics = %v", all)
	}
}

func TestRangeValidation(t *testing.T) {
	s := NewServer(60)
	s.Record(sim.WindowResult{Usage: sim.Usage{}})
	if _, err := s.Traces(0, 2); err == nil {
		t.Error("out-of-range Traces must fail")
	}
	if _, err := s.Metric(app.Pair{Component: "A"}, -1, 1); err == nil {
		t.Error("negative from must fail")
	}
	if _, err := s.Metric(app.Pair{Component: "A"}, 1, 0); err == nil {
		t.Error("inverted range must fail")
	}
	if _, err := s.Metric(app.Pair{Component: "ghost"}, 0, 1); err == nil {
		t.Error("unknown pair must fail")
	}
}

func TestRecordRunMatchesPerWindowRecord(t *testing.T) {
	_, _, run := testutil.ToyTelemetry(t, 1, 20, 3)
	bulk := NewServer(run.WindowSeconds)
	bulk.RecordRun(run)
	if bulk.NumWindows() != run.NumWindows() {
		t.Fatalf("NumWindows = %d, want %d", bulk.NumWindows(), run.NumWindows())
	}
	p := app.Pair{Component: "DB", Resource: app.CPU}
	m, err := bulk.Metric(p, 0, run.NumWindows())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range run.Usage[p] {
		if m[i] != v {
			t.Fatalf("window %d: %v vs %v", i, m[i], v)
		}
	}
}

// TestAppendMatchesRecordRun: a store filled by Append of k streams is the
// store one RecordRun of the whole run builds — the same export byte for
// byte, the same ring position and eviction count under retention, every
// cached vector in the installed generation, a pair first reported by a later
// stream zero-filled — and a stream that disagrees on the window duration is
// refused with nothing appended.
func TestAppendMatchesRecordRun(t *testing.T) {
	_, _, run := testutil.ToyTelemetry(t, 1, 20, 3)
	n := run.NumWindows()
	cuts := []int{0, n / 3, n / 3, n - 5, n} // one stream is empty
	late := app.Pair{Component: "Late", Resource: app.CPU}
	run.Usage[late] = make([]float64, n)
	for i := cuts[3]; i < n; i++ {
		run.Usage[late][i] = float64(i)
	}
	extract := func(w []trace.Batch) features.Vector {
		return features.Vector{Counts: []float64{float64(trace.TotalRequests(w))}}
	}
	export := func(s *Server) []byte {
		var buf bytes.Buffer
		if err := s.ExportJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	for _, retention := range []int{0, n / 2} {
		build := func(windowSeconds float64) (*Server, *obs.Registry) {
			reg := obs.NewRegistry()
			s := NewServer(windowSeconds)
			s.SetRetention(retention)
			s.Instrument(reg)
			s.SetExtractor(7, extract)
			return s, reg
		}
		want, wantReg := build(run.WindowSeconds)
		want.RecordRun(run)

		got, gotReg := build(0) // the first stream states the duration
		for k := 0; k+1 < len(cuts); k++ {
			chunk := run.Slice(cuts[k], cuts[k+1])
			if k < 3 {
				delete(chunk.Usage, late)
			}
			in := NewServer(run.WindowSeconds)
			in.RecordRun(chunk)
			if err := got.Append(in); err != nil {
				t.Fatalf("retention %d: Append of stream %d: %v", retention, k, err)
			}
		}

		if !bytes.Equal(export(got), export(want)) {
			t.Fatalf("retention %d: appended store exports differently from the recorded one", retention)
		}
		if got.NumWindows() != n || got.OldestWindow() != want.OldestWindow() || got.WindowSeconds() != run.WindowSeconds {
			t.Fatalf("retention %d: windows [%d, %d) at %vs, want [%d, %d) at %vs", retention,
				got.OldestWindow(), got.NumWindows(), got.WindowSeconds(), want.OldestWindow(), n, run.WindowSeconds)
		}
		if g, w := evictedValue(gotReg), evictedValue(wantReg); g != w || (retention > 0) != (w > 0) {
			t.Fatalf("retention %d: evicted %d windows, the recorded store %d", retention, g, w)
		}
		cached, err := got.Features(7, func([]trace.Batch) features.Vector {
			t.Errorf("retention %d: a window appended under generation 7 was not cached in it", retention)
			return features.Vector{}
		}, got.OldestWindow(), n)
		if err != nil {
			t.Fatal(err)
		}
		traces, _ := got.Traces(got.OldestWindow(), n)
		for i, v := range cached {
			if v.Counts[0] != extract(traces[i]).Counts[0] {
				t.Fatalf("retention %d: cached vector of window %d belongs to another window", retention, got.OldestWindow()+i)
			}
		}

		before := export(got)
		bad := NewServer(2 * run.WindowSeconds)
		bad.RecordRun(run.Slice(0, 2))
		if err := got.Append(bad); err == nil {
			t.Fatalf("retention %d: Append took a stream of another window duration", retention)
		}
		if err := got.Append(NewServer(0)); err == nil {
			t.Fatalf("retention %d: Append took a stream without a window duration", retention)
		}
		if !bytes.Equal(export(got), before) {
			t.Fatalf("retention %d: a refused stream changed the store", retention)
		}
	}
}

// TestLateMetricBackfill: a pair first reported mid-stream gets zero-padded
// history so all series stay aligned.
func TestLateMetricBackfill(t *testing.T) {
	s := NewServer(60)
	a := app.Pair{Component: "A", Resource: app.CPU}
	b := app.Pair{Component: "B", Resource: app.CPU}
	s.Record(sim.WindowResult{Usage: sim.Usage{a: 1}})
	s.Record(sim.WindowResult{Usage: sim.Usage{a: 2, b: 5}})
	m, err := s.Metric(b, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m[0] != 0 || m[1] != 5 {
		t.Fatalf("backfilled series = %v", m)
	}
}

// A pair absent from newly recorded windows must be zero-padded, not left
// short: full-range reads and eviction slice every series by trace-ring
// offsets and used to panic when telemetry from a different pair set (e.g.
// another application's export) was ingested on top of an existing store.
func TestAbsentMetricPadding(t *testing.T) {
	s := NewServer(60)
	a := app.Pair{Component: "A", Resource: app.CPU}
	b := app.Pair{Component: "B", Resource: app.CPU}
	s.Record(sim.WindowResult{Usage: sim.Usage{a: 1}})
	s.Record(sim.WindowResult{Usage: sim.Usage{b: 5}})
	s.Record(sim.WindowResult{Usage: sim.Usage{}})
	m, err := s.Metric(a, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m[0] != 1 || m[1] != 0 || m[2] != 0 {
		t.Fatalf("padded series = %v", m)
	}
	all, err := s.Metrics(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(all[a]) != 3 || len(all[b]) != 3 {
		t.Fatalf("series lengths = %d, %d, want 3, 3", len(all[a]), len(all[b]))
	}

	// Eviction re-slices every series by the same offset; a short series
	// used to panic here too.
	s.SetRetention(2)
	s.Record(sim.WindowResult{Usage: sim.Usage{}})
	if m, err = s.Metric(b, s.OldestWindow(), s.NumWindows()); err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 {
		t.Fatalf("post-eviction series = %v", m)
	}
}

func TestQueryCopiesData(t *testing.T) {
	s := NewServer(60)
	p := app.Pair{Component: "A", Resource: app.CPU}
	s.Record(sim.WindowResult{Usage: sim.Usage{p: 7}})
	m, _ := s.Metric(p, 0, 1)
	m[0] = 999
	m2, _ := s.Metric(p, 0, 1)
	if m2[0] != 7 {
		t.Fatal("Metric must return a copy")
	}
}

func TestConcurrentRecordAndRead(t *testing.T) {
	s := NewServer(60)
	p := app.Pair{Component: "A", Resource: app.CPU}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			s.Record(sim.WindowResult{Usage: sim.Usage{p: float64(i)}})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			n := s.NumWindows()
			if n > 0 {
				if _, err := s.Metric(p, 0, n); err != nil {
					t.Errorf("Metric: %v", err)
					return
				}
			}
		}
	}()
	wg.Wait()
	if s.NumWindows() != 200 {
		t.Fatalf("NumWindows = %d", s.NumWindows())
	}
}
