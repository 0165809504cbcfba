package features

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

func readTrace() trace.Trace {
	root := trace.NewSpan("Frontend", "read")
	svc := root.Child("Service", "read")
	svc.Child("DB", "find")
	return trace.Trace{API: "/read", Root: root}
}

func writeTrace() trace.Trace {
	root := trace.NewSpan("Frontend", "write")
	svc := root.Child("Service", "write")
	svc.Child("DB", "insert")
	return trace.Trace{API: "/write", Root: root}
}

func windows() [][]trace.Batch {
	return [][]trace.Batch{
		{{Trace: readTrace(), Count: 10}, {Trace: writeTrace(), Count: 4}},
		{{Trace: readTrace(), Count: 2}},
	}
}

func TestSpaceConstruction(t *testing.T) {
	s := NewSpace(windows())
	// Each 3-node chain contributes 3 prefixes; two distinct chains → 6.
	if got := s.Dim(); got != 6 {
		t.Fatalf("Dim = %d, want 6", got)
	}
	// First-seen order: the read chain was seen first.
	if s.Path(0) != "Frontend:read" {
		t.Errorf("Path(0) = %q", s.Path(0))
	}
	if _, ok := s.index["Frontend:read→Service:read→DB:find"]; !ok {
		t.Error("deep read path missing")
	}
	if _, ok := s.index["nonexistent"]; ok {
		t.Error("unknown path should not resolve")
	}
}

func TestExtractCounts(t *testing.T) {
	w := windows()
	s := NewSpace(w)
	v := s.Extract(w[0])
	// Window 0: read ×10 and write ×4; every node on a chain counts.
	iRead := s.index["Frontend:read"]
	iReadDeep := s.index["Frontend:read→Service:read→DB:find"]
	iWrite := s.index["Frontend:write"]
	if v.Counts[iRead] != 10 || v.Counts[iReadDeep] != 10 {
		t.Errorf("read counts wrong: %v", v.Counts)
	}
	if v.Counts[iWrite] != 4 {
		t.Errorf("write count = %v, want 4", v.Counts[iWrite])
	}
	if v.Unknown != 0 {
		t.Errorf("Unknown = %v, want 0", v.Unknown)
	}
}

func TestExtractUnknownPaths(t *testing.T) {
	s := NewSpace(windows())
	novel := trace.Trace{Root: trace.NewSpan("NewComponent", "op"), API: "/new"}
	v := s.Extract([]trace.Batch{{Trace: novel, Count: 3}})
	if v.Unknown != 3 {
		t.Errorf("Unknown = %v, want 3", v.Unknown)
	}
}

func TestExtractSeriesAndMatrix(t *testing.T) {
	w := windows()
	s := NewSpace(w)
	series := s.ExtractSeries(w)
	if len(series) != 2 {
		t.Fatalf("series len = %d", len(series))
	}
	m := Matrix(series)
	if len(m) != 2 || len(m[0]) != s.Dim() {
		t.Fatalf("matrix shape = %dx%d", len(m), len(m[0]))
	}
	// Mutating the matrix must not affect the series.
	m[0][0] = -1
	if series[0].Counts[0] == -1 {
		t.Error("Matrix must copy rows")
	}
}

func TestScaler(t *testing.T) {
	m := [][]float64{{2, 0}, {4, 0}}
	s := FitScaler(m)
	if s.Max[0] != 4 || s.Max[1] != 1 {
		t.Fatalf("Max = %v", s.Max)
	}
	out := s.Apply(m)
	if out[1][0] != 1 || out[0][0] != 0.5 {
		t.Errorf("Apply = %v", out)
	}
	// Scaling preserves ratios beyond the training max (3× traffic maps
	// to values around 3), the property the estimator's extrapolation
	// relies on.
	if row := s.Apply([][]float64{{12, 0}})[0]; row[0] != 3 {
		t.Errorf("Apply beyond the max = %v, want 3", row[0])
	}
	if empty := FitScaler(nil); len(empty.Max) != 0 {
		t.Error("FitScaler(nil) should be empty")
	}
}

func TestRestoreSpaceRoundTrip(t *testing.T) {
	s := NewSpace(windows())
	r := RestoreSpace(s.Paths())
	if r.Dim() != s.Dim() {
		t.Fatalf("restored Dim = %d, want %d", r.Dim(), s.Dim())
	}
	for i := 0; i < s.Dim(); i++ {
		if r.Path(i) != s.Path(i) {
			t.Fatalf("path %d mismatch: %q vs %q", i, r.Path(i), s.Path(i))
		}
		if j, ok := r.index[s.Path(i)]; !ok || j != i {
			t.Fatalf("index %d mismatch", i)
		}
	}
}

// Property: extraction is additive — extracting two windows separately and
// summing equals extracting their concatenation.
func TestExtractAdditivityProperty(t *testing.T) {
	s := NewSpace(windows())
	f := func(c1, c2 uint8) bool {
		w1 := []trace.Batch{{Trace: readTrace(), Count: int(c1)}}
		w2 := []trace.Batch{{Trace: writeTrace(), Count: int(c2)}}
		both := append(append([]trace.Batch{}, w1...), w2...)
		v1 := s.Extract(w1)
		v2 := s.Extract(w2)
		v := s.Extract(both)
		for i := range v.Counts {
			if math.Abs(v.Counts[i]-(v1.Counts[i]+v2.Counts[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a batch of count N produces exactly N× the counts of a batch of
// count 1.
func TestExtractLinearityProperty(t *testing.T) {
	s := NewSpace(windows())
	f := func(n uint8) bool {
		one := s.Extract([]trace.Batch{{Trace: readTrace(), Count: 1}})
		many := s.Extract([]trace.Batch{{Trace: readTrace(), Count: int(n)}})
		for i := range one.Counts {
			if many.Counts[i] != one.Counts[i]*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
