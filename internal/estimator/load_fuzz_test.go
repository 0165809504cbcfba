package estimator_test

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/estimator"
	"repro/internal/estimator/infer"
	"repro/internal/testutil"
)

// FuzzLoadModel: estimator.Load reads checkpoint files and downloaded
// bodies. Whatever the bytes, it returns an error or a whole model: one that
// compiles, whose engine and tape both predict, and — when no weight or
// scale is of a magnitude that overflows on its own — predict finite values.
func FuzzLoadModel(f *testing.F) {
	_, _, run := testutil.ToyTelemetry(f, 1, 30, 4)
	usage := testutil.FocusPairs(run.Usage,
		app.Pair{Component: "Service", Resource: app.CPU},
		app.Pair{Component: "DB", Resource: app.DiskUsage},
	)
	cfg := estimator.DefaultConfig()
	cfg.Hidden, cfg.Epochs, cfg.AttentionEpochs, cfg.ChunkLen = 2, 1, 1, 24
	m, _, err := estimator.TrainWarm(run.Windows, usage, cfg, nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		f.Fatal(err)
	}
	stream := bytes.Clone(buf.Bytes())
	f.Add(stream)
	f.Add(stream[:len(stream)/2])
	f.Add(stream[:len(stream)-1])
	// The experts' raw bits end the stream: a NaN for the first weight, and
	// a cut 3 bytes into the second expert's first float.
	header := len(stream) - m.WeightBytes()
	first := 8 * m.Experts[m.Pairs[0]].NumParams()
	nan := bytes.Clone(stream)
	binary.LittleEndian.PutUint64(nan[header:], math.Float64bits(math.NaN()))
	f.Add(nan)
	f.Add(stream[:header+first+3])
	// An expert that no path visits: its mask, W· and bypass have no
	// values, and it predicts from its biases and attention.
	idle := testutil.FocusPairs(run.Usage, app.Pair{Component: "Service", Resource: app.CPU})
	idle[app.Pair{Component: "Idle", Resource: app.CPU}] = idle[app.Pair{Component: "Service", Resource: app.CPU}]
	withIdle, _, err := estimator.TrainWarm(run.Windows, idle, cfg, nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	buf.Reset()
	if err := withIdle.Save(&buf); err != nil {
		f.Fatal(err)
	}
	if got, err := estimator.Load(bytes.NewReader(buf.Bytes())); err != nil || got.Experts[app.Pair{Component: "Idle", Resource: app.CPU}].InDim != 0 {
		f.Fatalf("the model with an expert no path visits: %v", err)
	}
	f.Add(bytes.Clone(buf.Bytes()))
	// A header with one more path that visits Service: the Service expert
	// reads one more input than was written, and the stream runs short.
	r := bytes.NewReader(stream)
	var h struct {
		Version                             int
		Hidden                              int
		Delta                               float64
		UseMask, UseAttention, LinearBypass bool
		Paths                               []string
		ScalerMax                           []float64
		Pairs                               []app.Pair
		Components                          []string
		Scales                              []struct {
			Kind        int
			Scale, Base float64
		}
	}
	if err := gob.NewDecoder(r).Decode(&h); err != nil {
		f.Fatal(err)
	}
	h.Paths, h.ScalerMax = append(h.Paths, "Gateway:x→Service:y"), append(h.ScalerMax, 1)
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(h); err != nil {
		f.Fatal(err)
	}
	if _, err := r.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	if _, err := estimator.Load(bytes.NewReader(buf.Bytes())); err == nil || !strings.Contains(err.Error(), "EOF") {
		f.Fatalf("a header that widens an expert past the stream: %v", err)
	}
	f.Add(bytes.Clone(buf.Bytes()))
	windows := run.Windows[:4]

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := estimator.Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		eng, err := infer.Compile(got)
		if err != nil {
			t.Fatalf("a loaded model does not compile: %v", err)
		}
		eng.SetPool(nil)
		series := got.Space.ExtractSeries(windows)
		fromEngine, err := eng.Predict(series)
		if err != nil {
			t.Fatalf("a loaded model's engine does not predict: %v", err)
		}
		if _, err := got.PredictVectors(series); err != nil {
			t.Fatalf("a loaded model's tape does not predict: %v", err)
		}
		ordinary := true
		for _, p := range got.Pairs {
			for _, par := range got.Experts[p].Params() {
				for _, v := range par.Data {
					ordinary = ordinary && math.Abs(v) < 1e90
				}
			}
			ts := got.TargetScales[p]
			ordinary = ordinary && ts.Scale < 1e90 && math.Abs(ts.Base) < 1e90
		}
		for _, v := range got.FeatScaler.Max {
			ordinary = ordinary && v > 1e-90
		}
		if !ordinary {
			return
		}
		for p, e := range fromEngine {
			for _, s := range [][]float64{e.Exp, e.Low, e.Up} {
				for _, v := range s {
					if v-v != 0 {
						t.Fatalf("%s: non-finite estimate %v from finite weights of ordinary size", p, v)
					}
				}
			}
		}
	})
}
