package telemetry

import "testing"

// TestRecordAllocs pins steady-state ingest into a bounded store with an
// installed extractor: once the ring is full, a Record evicts one window,
// stores one, and allocates the new window's feature vector — nothing that
// grows with history or with the spans in the window.
func TestRecordAllocs(t *testing.T) {
	sp := benchSpace()
	s := NewServer(60)
	s.SetRetention(32)
	s.SetExtractor(1, sp.Extract)
	w := benchWindow()
	for i := 0; i < 128; i++ { // fill the ring and let its slices reach their final capacity
		s.Record(w)
	}
	if allocs := testing.AllocsPerRun(200, func() { s.Record(w) }); allocs > 1 {
		t.Fatalf("steady-state Record allocates %.1f objects per window, want <= 1 (the feature vector)", allocs)
	}
}

// TestFeaturesCachedAllocs pins a feature read served from the per-window
// cache: the result slice, and no extraction.
func TestFeaturesCachedAllocs(t *testing.T) {
	sp := benchSpace()
	s := NewServer(60)
	s.SetExtractor(1, sp.Extract)
	const n = 64
	for i := 0; i < n; i++ {
		s.Record(benchWindow())
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.Features(1, sp.Extract, 0, n); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("cached Features read of %d windows allocates %.1f objects, want <= 1 (the result slice)", n, allocs)
	}
}
