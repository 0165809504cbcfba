package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// importChunk parses one pushed telemetry stream into window results, the
// way the daemon's /v1/telemetry handler appends a stream to its store.
func importChunk(chunk []byte) (*telemetry.Server, []sim.WindowResult, error) {
	in, err := telemetry.ImportJSON(bytes.NewReader(chunk))
	if err != nil {
		return nil, nil, err
	}
	n := in.NumWindows()
	traces, err := in.Traces(0, n)
	if err != nil {
		return nil, nil, err
	}
	metrics, err := in.Metrics(0, n)
	if err != nil {
		return nil, nil, err
	}
	out := make([]sim.WindowResult, n)
	for i := range out {
		out[i] = sim.WindowResult{Batches: traces[i], Usage: make(sim.Usage, len(metrics))}
		for p, series := range metrics {
			out[i].Usage[p] = series[i]
		}
	}
	return in, out, nil
}

// mirrorStore rebuilds, from the chunks the harness pushed, the telemetry
// store the daemon holds after ingesting chunks[:n]: the first stream
// becomes the store, later ones are appended window by window.
func mirrorStore(fx *fixture, n int) (*telemetry.Server, error) {
	var store *telemetry.Server
	for _, chunk := range fx.chunks[:n] {
		in, windows, err := importChunk(chunk)
		if err != nil {
			return nil, fmt.Errorf("mirror store: %w", err)
		}
		if store == nil {
			store = in
			continue
		}
		for _, wr := range windows {
			store.Record(wr)
		}
	}
	return store, nil
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// restore downloads the tenant's active model and rebuilds its core.System
// over the training telemetry the harness pushed. It also returns the size
// of the serialized model.
func (r *runner) restore(t *target) (*core.System, int, error) {
	resp, err := r.side.hc.Get(t.url + "/v1/model")
	if err != nil {
		return nil, 0, fmt.Errorf("download model: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return nil, 0, fmt.Errorf("download model: status %d", resp.StatusCode)
	}
	// Decoded straight off the socket: the serialized model is tens of
	// megabytes, and a copy of it would be the harness's largest allocation.
	body := &countingReader{r: resp.Body}
	model, err := estimator.Load(body)
	if err != nil {
		return nil, 0, fmt.Errorf("load model: %w", err)
	}
	store, err := mirrorStore(t.fx, t.fx.trainChunks)
	if err != nil {
		return nil, 0, err
	}
	traces, err := store.Traces(0, r.def.trainWindows)
	if err != nil {
		return nil, 0, fmt.Errorf("mirror store: %w", err)
	}
	return core.Restore(model, traces, core.DefaultOptions()), body.n, nil
}

// restoreAll restores every tenant's model into r.systems and returns the
// total size of the serialized models.
func (r *runner) restoreAll() (int, error) {
	r.systems = map[*target]*core.System{}
	total := 0
	for _, t := range r.targets {
		sys, size, err := r.restore(t)
		if err != nil {
			return 0, err
		}
		r.systems[t] = sys
		total += size
	}
	return total, nil
}

// oracle recomputes the sampled responses through the eval tape
// (Model.PredictVectors) on the restored systems and compares every value
// bit for bit. It returns the number of responses that did not match.
func (r *runner) oracle() (mismatches int) {
	for _, s := range r.samples {
		if err := recompute(r.systems[s.t], s.body, s.resp); err != nil {
			mismatches++
			fmt.Printf("oracle mismatch on %s: %v\n", s.t.url, err)
		}
	}
	return mismatches
}

// trafficOf decodes an estimate body into the traffic the daemon's handler
// builds from it.
func trafficOf(body []byte) (*workload.Traffic, error) {
	var req estimateBody
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	return &workload.Traffic{Windows: req.Windows, WindowSeconds: windowSeconds, WindowsPerDay: req.WindowsPerDay}, nil
}

// recompute checks one response against the tape.
func recompute(sys *core.System, body, resp []byte) error {
	var got estimateResponse
	if err := json.Unmarshal(resp, &got); err != nil {
		return err
	}
	traffic, err := trafficOf(body)
	if err != nil {
		return err
	}
	series, err := sys.SynthesizeFeatures(traffic)
	if err != nil {
		return err
	}
	want, err := sys.Model().PredictVectors(series)
	if err != nil {
		return err
	}
	if len(want) != len(got.Estimates) {
		return fmt.Errorf("tape has %d pairs, response %d", len(want), len(got.Estimates))
	}
	for p, w := range want {
		g := got.Estimates[p.String()]
		for k, pair := range [][2][]float64{{w.Exp, g.Exp}, {w.Low, g.Low}, {w.Up, g.Up}} {
			if len(pair[0]) != len(pair[1]) {
				return fmt.Errorf("%s series %d: %d windows against %d", p, k, len(pair[0]), len(pair[1]))
			}
			for i := range pair[0] {
				if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
					return fmt.Errorf("%s series %d window %d: tape %v, daemon %v", p, k, i, pair[0][i], pair[1][i])
				}
			}
		}
	}
	return nil
}
