package features

import (
	"math"
	"testing"

	"repro/internal/trace"
)

// referenceExtract is the pre-optimisation extractor: Walk every span,
// build the path key with PathKey (one fresh string per span), look it up.
// It is the semantic oracle for the allocation-free fast path.
func referenceExtract(s *Space, window []trace.Batch) Vector {
	v := Vector{Counts: make([]float64, s.Dim())}
	for _, b := range window {
		if b.Trace.Root == nil {
			continue
		}
		n := float64(b.Count)
		b.Trace.Root.Walk(func(_ *trace.Span, path []string) {
			if i, ok := s.index[trace.PathKey(path)]; ok {
				v.Counts[i] += n
			} else {
				v.Unknown += n
			}
		})
	}
	return v
}

// deepWindow builds a window with a deep, branching trace plus one span
// that is unknown to the space built from knownWindow.
func deepWindow() []trace.Batch {
	root := trace.NewSpan("Gateway", "route")
	auth := root.Child("Auth", "verify")
	auth.Child("DB", "lookup")
	svc := root.Child("Service", "handle")
	svc.Child("Cache", "get")
	svc.Child("DB", "query")
	unknownRoot := trace.NewSpan("Rogue", "op")
	return []trace.Batch{
		{Trace: trace.Trace{API: "/a", Root: root}, Count: 7},
		{Trace: trace.Trace{API: "/b", Root: unknownRoot}, Count: 2},
	}
}

func knownWindow() []trace.Batch {
	w := deepWindow()
	return w[:1]
}

func TestExtractMatchesReference(t *testing.T) {
	s := NewSpace([][]trace.Batch{knownWindow()})
	for _, tc := range []struct {
		name   string
		window []trace.Batch
	}{
		{"all known", knownWindow()},
		{"with unknown spans", deepWindow()},
		{"empty window", nil},
		{"nil root", []trace.Batch{{Count: 3}}},
	} {
		got := s.Extract(tc.window)
		want := referenceExtract(s, tc.window)
		if len(got.Counts) != len(want.Counts) {
			t.Fatalf("%s: dim %d, want %d", tc.name, len(got.Counts), len(want.Counts))
		}
		for i := range want.Counts {
			if math.Float64bits(got.Counts[i]) != math.Float64bits(want.Counts[i]) {
				t.Fatalf("%s: Counts[%d] = %v, want %v", tc.name, i, got.Counts[i], want.Counts[i])
			}
		}
		if got.Unknown != want.Unknown {
			t.Fatalf("%s: Unknown = %v, want %v", tc.name, got.Unknown, want.Unknown)
		}
	}
}

// TestExtractAllocs pins the per-span allocation fix: one Extract call
// allocates the result vector and (at most) one shared path buffer,
// regardless of how many spans the window holds. The old extractor built a
// fresh path string per span, so allocations grew with span count.
func TestExtractAllocs(t *testing.T) {
	s := NewSpace([][]trace.Batch{knownWindow()})
	w := knownWindow()
	// Warm up so the one-time buffer growth inside the first call does not
	// get charged to the measured runs.
	_ = s.Extract(w)
	allocs := testing.AllocsPerRun(100, func() {
		_ = s.Extract(w)
	})
	// Counts slice + path buffer. Anything above that means per-span
	// allocation crept back in.
	if allocs > 2 {
		t.Fatalf("Extract allocates %.0f objects per call, want <= 2 (per-span allocation regressed)", allocs)
	}
}

func BenchmarkExtract(b *testing.B) {
	s := NewSpace([][]trace.Batch{knownWindow()})
	w := deepWindow()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Extract(w)
	}
}

func BenchmarkExtractReference(b *testing.B) {
	s := NewSpace([][]trace.Batch{knownWindow()})
	w := deepWindow()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = referenceExtract(s, w)
	}
}
