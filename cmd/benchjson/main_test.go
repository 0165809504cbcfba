package main

import (
	"reflect"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	for _, tc := range []struct {
		line string
		want benchResult
		ok   bool
	}{
		{
			line: "BenchmarkTrainEpoch-8  3830  336440 ns/op  174984 B/op  55 allocs/op",
			want: benchResult{Name: "TrainEpoch", Procs: 8, Iterations: 3830, NsPerOp: 336440, BytesPerOp: 174984, AllocsPerOp: 55},
			ok:   true,
		},
		{
			// go test omits the suffix at GOMAXPROCS=1; a dimension in a
			// sub-benchmark name is not a suffix.
			line: "BenchmarkGRUKernelStep/67x128  2000  31181 ns/op",
			want: benchResult{Name: "GRUKernelStep/67x128", Procs: 1, Iterations: 2000, NsPerOp: 31181},
			ok:   true,
		},
		{
			line: "BenchmarkInferBatched-2  100  812345 ns/op  101543 ns/req  4096 B/op  12 allocs/op",
			want: benchResult{Name: "InferBatched", Procs: 2, Iterations: 100, NsPerOp: 812345, BytesPerOp: 4096, AllocsPerOp: 12,
				Metrics: map[string]float64{"ns/req": 101543}},
			ok: true,
		},
		{line: "BenchmarkBroken-8  many  1 ns/op"},
		{line: "BenchmarkTruncated-8  10  5"},
	} {
		got, ok := parseBenchLine(tc.line)
		if ok != tc.ok || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseBenchLine(%q) = %+v, %v; want %+v, %v", tc.line, got, ok, tc.want, tc.ok)
		}
	}
}
