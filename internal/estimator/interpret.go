package estimator

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/app"
	"repro/internal/features"
)

// APIInfluence measures, per API, how strongly the expert's estimate
// depends on that API's traffic: the model is probed on the given windows'
// feature vectors (Space.ExtractSeries, or the telemetry store's cache)
// with the API's invocation paths occluded (zeroed), and the influence is
// the mean absolute change of the expected-utilization output, normalised
// so the most influential API scores 1. This condenses the learned
// API→resource dependencies into the per-API bars of Figure 22. Each probe
// runs the expert alone on the eval tape, with a zero attention context: the
// question is what the expert's own input path depends on.
//
// The paper reads the mask weights directly; occlusion probes the same
// question — "which APIs does this expert rely on?" — but stays faithful
// when attribution is shared between the mask, the recurrent weights, and
// the linear bypass. A path's API is identified by its root
// (component:operation) token; in a hashed deployment the tokens are opaque
// but still group correctly. An API none of whose paths the expert reads
// cannot move its estimate: its influence is 0, and it is not probed.
func (m *Model) APIInfluence(pair app.Pair, series []features.Vector) (map[string]float64, error) {
	return m.influence(pair, series, true)
}

// influence is APIInfluence, which skips the probes of APIs the expert does
// not read when skip is set.
func (m *Model) influence(pair app.Pair, series []features.Vector, skip bool) (map[string]float64, error) {
	e, ok := m.Experts[pair]
	if !ok {
		return nil, fmt.Errorf("estimator: no expert for %s", pair)
	}
	if len(series) == 0 {
		return nil, fmt.Errorf("estimator: no telemetry windows to measure influence over")
	}
	x := m.FeatScaler.Apply(features.Matrix(series))
	ws := newWorkspace()
	base, err := e.forward(ws, x, nil)
	if err != nil {
		return nil, err
	}

	// Group feature columns by the root token of their path.
	cols := make(map[string][]int)
	for i := 0; i < m.Space.Dim(); i++ {
		root := rootToken(m.Space.Path(i))
		cols[root] = append(cols[root], i)
	}

	reads := make([]bool, m.Space.Dim())
	for _, k := range e.Inputs {
		reads[k] = true
	}
	out := make(map[string]float64, len(cols))
	max := 0.0
	for root, idxs := range cols {
		if skip && !slices.ContainsFunc(idxs, func(k int) bool { return reads[k] }) {
			out[root] = 0
			continue
		}
		occluded := occlude(x, idxs)
		probe, err := e.forward(ws, occluded, nil)
		if err != nil {
			return nil, err
		}
		diff := 0.0
		for t := range base {
			d := base[t][0] - probe[t][0]
			if d < 0 {
				d = -d
			}
			diff += d
		}
		v := diff / float64(len(base))
		out[root] = v
		if v > max {
			max = v
		}
	}
	if max > 0 {
		for k := range out {
			out[k] /= max
		}
	}
	return out, nil
}

// occlude returns a copy of x with the given columns zeroed.
func occlude(x [][]float64, cols []int) [][]float64 {
	out := make([][]float64, len(x))
	for t, row := range x {
		r := make([]float64, len(row))
		copy(r, row)
		for _, c := range cols {
			r[c] = 0
		}
		out[t] = r
	}
	return out
}

func rootToken(path string) string {
	if i := strings.Index(path, "→"); i >= 0 {
		return path[:i]
	}
	return path
}

// AttentionReport returns, for one expert, the peers sorted by descending
// |α| with their attention weights — which other (component, resource)
// experts it listens to.
func (m *Model) AttentionReport(pair app.Pair, topN int) []PeerWeight {
	e, ok := m.Experts[pair]
	if !ok {
		return nil
	}
	out := make([]PeerWeight, len(e.Attn.Peers))
	for i, name := range e.Attn.Peers {
		out[i] = PeerWeight{Peer: name, Alpha: e.Attn.Alpha.Data[i]}
	}
	sort.Slice(out, func(i, j int) bool {
		ai, aj := out[i].Alpha, out[j].Alpha
		if ai < 0 {
			ai = -ai
		}
		if aj < 0 {
			aj = -aj
		}
		if ai != aj {
			return ai > aj
		}
		return out[i].Peer < out[j].Peer
	})
	if topN > 0 && topN < len(out) {
		out = out[:topN]
	}
	return out
}

// PeerWeight is one peer's attention weight.
type PeerWeight struct {
	// Peer is the peer expert's "Component/resource" key.
	Peer string
	// Alpha is the learned attention weight.
	Alpha float64
}

// ExpertVector flattens the application-independent recurrent parameters of
// an expert (its GRU cell) into one vector, the representation the paper
// projects with PCA in Figure 21 to show MongoDB experts clustering. The
// experts read different paths, so each W· is scattered back into the whole
// feature space first: column k of a row lands on feature Inputs[k], and a
// path the expert does not read is 0.
func (m *Model) ExpertVector(pair app.Pair) []float64 {
	e, ok := m.Experts[pair]
	if !ok {
		return nil
	}
	flat := e.Cell.FlatParams() // per gate: W· (hidden × inputs), U·, b·
	hid, in, dim := e.Hidden, e.InDim, m.Space.Dim()
	gate := hid*in + hid*hid + hid
	out := make([]float64, 0, 3*(hid*dim+hid*hid+hid))
	for g := range 3 {
		w := flat[g*gate:][:hid*in]
		for r := range hid {
			row := make([]float64, dim)
			for k, f := range e.Inputs {
				row[f] = w[r*in+k]
			}
			out = append(out, row...)
		}
		out = append(out, flat[g*gate+hid*in:][:hid*hid+hid]...)
	}
	return out
}
