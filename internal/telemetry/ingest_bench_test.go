package telemetry

import (
	"testing"

	"repro/internal/features"
	"repro/internal/sim"
	"repro/internal/trace"
)

// benchWindow builds a moderately wide window: 8 distinct traces of 4 spans
// each, a plausible per-minute scrape for a small deployment.
func benchWindow() sim.WindowResult {
	var batches []trace.Batch
	apis := []string{"/read", "/write", "/list", "/search", "/login", "/cart", "/pay", "/ship"}
	for i, api := range apis {
		root := trace.NewSpan("Gateway", api)
		svc := root.Child("Service", api)
		svc.Child("Cache", "get")
		svc.Child("DB", "query")
		batches = append(batches, trace.Batch{
			Trace: trace.Trace{API: api, Root: root},
			Count: 10 + i,
		})
	}
	return sim.WindowResult{Batches: batches, Usage: sim.Usage{cpuA: 1}}
}

func benchSpace() *features.Space {
	return features.NewSpace([][]trace.Batch{benchWindow().Batches})
}

// BenchmarkRecord measures steady-state ingestion into a bounded store with
// an installed extractor: one window in, one evicted, features extracted at
// Record time. This is the cost the paper's "streaming telemetry" mode pays
// per scrape — it must stay O(window), independent of history length.
func BenchmarkRecord(b *testing.B) {
	sp := benchSpace()
	s := NewServer(60)
	s.SetRetention(256)
	s.SetExtractor(1, sp.Extract)
	w := benchWindow()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Record(w)
	}
}

// BenchmarkRecordUnbounded is the same ingest without retention or an
// extractor — the seed store's behaviour — for comparison.
func BenchmarkRecordUnbounded(b *testing.B) {
	s := NewServer(60)
	w := benchWindow()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Record(w)
	}
}

// BenchmarkFeaturesCached reads a feature range that was extracted at
// Record time: pure cache hits, no trace walking.
func BenchmarkFeaturesCached(b *testing.B) {
	sp := benchSpace()
	s := NewServer(60)
	s.SetExtractor(1, sp.Extract)
	const n = 64
	for i := 0; i < n; i++ {
		s.Record(benchWindow())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Features(1, sp.Extract, 0, n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeaturesUncached extracts the same range from raw traces every
// iteration — what every /v1/estimate and drift check paid before the
// feature cache.
func BenchmarkFeaturesUncached(b *testing.B) {
	sp := benchSpace()
	s := NewServer(60)
	const n = 64
	for i := 0; i < n; i++ {
		s.Record(benchWindow())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		windows, err := s.Traces(0, n)
		if err != nil {
			b.Fatal(err)
		}
		_ = sp.ExtractSeries(windows)
	}
}
