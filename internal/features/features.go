// Package features implements DeepRest's distributed-tracing feature
// extractor (paper §4.1, Algorithms 1 and 2).
//
// Traces are unstructured trees of spans whose size varies with request
// payloads, so they cannot be fed to a neural network directly. The
// extractor turns them into fixed-width count vectors: the feature space has
// one dimension per distinct root-to-node invocation path observed during
// application learning, and the feature vector of a scrape window counts how
// many times each path was exercised by the window's traces. The intuition
// is that the utilization of a resource in a component is a function of how
// many times the component is triggered, conditioned on the business logic —
// which the invocation path encodes.
package features

import "repro/internal/trace"

// Space is the path-to-feature map M of Algorithm 1. It is immutable once
// built: querying a window never adds dimensions, so vectors extracted at
// query time always align with the vectors the model was trained on.
type Space struct {
	index map[string]int
	paths []string
}

// NewSpace constructs the feature space from the batches collected during
// the application learning phase (Algorithm 1). Every root-to-node path
// prefix across all traces becomes one dimension, numbered in first-seen
// order exactly as in the paper's pseudo-code.
func NewSpace(windows [][]trace.Batch) *Space {
	s := &Space{index: make(map[string]int)}
	for _, w := range windows {
		for _, b := range w {
			s.addTrace(b.Trace)
		}
	}
	return s
}

func (s *Space) addTrace(t trace.Trace) {
	if t.Root == nil {
		return
	}
	t.Root.Walk(func(_ *trace.Span, path []string) {
		key := trace.PathKey(path)
		if _, ok := s.index[key]; !ok {
			s.index[key] = len(s.index)
			s.paths = append(s.paths, key)
		}
	})
}

// RestoreSpace rebuilds a Space from a saved path list (dimension i gets
// paths[i]), the inverse of Paths. Used when loading serialized models.
func RestoreSpace(paths []string) *Space {
	s := &Space{index: make(map[string]int, len(paths))}
	for i, p := range paths {
		s.index[p] = i
		s.paths = append(s.paths, p)
	}
	return s
}

// Dim returns the dimensionality of the feature space.
func (s *Space) Dim() int { return len(s.index) }

// Path returns the path key of feature dimension i.
func (s *Space) Path(i int) string { return s.paths[i] }

// Paths returns all path keys ordered by feature index.
func (s *Space) Paths() []string {
	out := make([]string, len(s.paths))
	copy(out, s.paths)
	return out
}

// Extract transforms one window of trace batches into its feature vector
// (Algorithm 2): for every span in every trace, the count of the span's
// root-to-node path is incremented by the batch multiplicity. Paths never
// seen during application learning are counted in the Unknown tally instead
// of silently dropped, so callers can detect topology drift.
//
// This is the ingestion hot path: the path key is built incrementally in a
// byte buffer shared across the whole window, and the index lookup converts
// it without allocating, so extraction costs two allocations per window
// (the count vector and the buffer) instead of one string per span.
func (s *Space) Extract(window []trace.Batch) Vector {
	v := Vector{Counts: make([]float64, s.Dim())}
	// Start at a capacity that covers typical path keys; deeper paths regrow
	// once and the larger buffer is kept for the rest of the window.
	buf := make([]byte, 0, 128)
	for _, b := range window {
		if b.Trace.Root == nil {
			continue
		}
		buf = s.countSpans(b.Trace.Root, buf[:0], float64(b.Count), &v)
	}
	return v
}

// pathSep is the separator trace.PathKey joins span IDs with.
const pathSep = "→"

// countSpans walks the span tree depth-first, extending the path key of the
// current node in prefix. It returns the (possibly regrown) buffer so the
// caller keeps the larger backing array for subsequent trees; siblings
// truncate back to their parent's length before appending their own ID.
func (s *Space) countSpans(sp *trace.Span, prefix []byte, n float64, v *Vector) []byte {
	if len(prefix) > 0 {
		prefix = append(prefix, pathSep...)
	}
	prefix = append(prefix, sp.Component...)
	prefix = append(prefix, ':')
	prefix = append(prefix, sp.Operation...)
	if i, ok := s.index[string(prefix)]; ok { // no-alloc map lookup
		v.Counts[i] += n
	} else {
		v.Unknown += n
	}
	base := len(prefix)
	for _, c := range sp.Children {
		prefix = s.countSpans(c, prefix[:base], n, v)
	}
	return prefix
}

// ExtractSeries transforms a sequence of windows into the time-series of
// feature vectors {x_1, ..., x_T} consumed by the resource estimator.
func (s *Space) ExtractSeries(windows [][]trace.Batch) []Vector {
	out := make([]Vector, len(windows))
	for t, w := range windows {
		out[t] = s.Extract(w)
	}
	return out
}

// Vector is the feature vector x_t of one scrape window.
type Vector struct {
	// Counts holds, per feature-space dimension, the number of times the
	// corresponding invocation path was exercised in the window.
	Counts []float64
	// Unknown counts span visits whose path was never seen during
	// application learning. A persistently non-zero value means the
	// application topology changed and the model should be re-learned.
	Unknown float64
}

// Matrix stacks a feature-vector series into a dense [T][D] matrix, the
// layout expected by the neural estimator.
func Matrix(series []Vector) [][]float64 {
	out := make([][]float64, len(series))
	for t, v := range series {
		row := make([]float64, len(v.Counts))
		copy(row, v.Counts)
		out[t] = row
	}
	return out
}

// Scaler normalises feature matrices so that every dimension has comparable
// magnitude. DeepRest scales counts by the per-dimension maximum observed
// during application learning (no shift), so that a query with, say, 3× the
// traffic maps to values around 3.0 — preserving the extrapolation signal
// rather than clipping it.
type Scaler struct {
	// Max holds the per-dimension maxima; dimensions never observed
	// non-zero use 1 to avoid division by zero.
	Max []float64
}

// FitScaler computes per-dimension maxima over a training matrix.
func FitScaler(m [][]float64) *Scaler {
	if len(m) == 0 {
		return &Scaler{}
	}
	max := make([]float64, len(m[0]))
	for _, row := range m {
		for i, v := range row {
			if v > max[i] {
				max[i] = v
			}
		}
	}
	for i, v := range max {
		if v <= 0 {
			max[i] = 1
		}
	}
	return &Scaler{Max: max}
}

// Apply returns a newly allocated scaled copy of m.
func (s *Scaler) Apply(m [][]float64) [][]float64 {
	out := make([][]float64, len(m))
	for t, row := range m {
		r := make([]float64, len(row))
		for i, v := range row {
			r[i] = v / s.Max[i]
		}
		out[t] = r
	}
	return out
}
