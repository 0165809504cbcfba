package estimator

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/app"
	"repro/internal/features"
	"repro/internal/nn/ad"
)

// The serialized form is an explicit snapshot rather than the live object
// graph: it pins the layout (so refactoring internals never silently breaks
// saved models), drops volatile state (loggers, training knobs), and
// rebuilds the expert wiring on load. It is a stream of gob values on one
// encoder — a modelHeader, then one expertGob per pair in header order — so
// neither side ever holds more than one expert's encoding, and a reader that
// was cut short knows it: the header states how many experts follow.

type paramGob struct {
	Name       string
	Rows, Cols int
	Data       []float64
}

type expertGob struct {
	Pair          app.Pair
	InDim, Hidden int
	Peers         []string
	Params        []paramGob
	UseMask       bool
	UseAttention  bool
	UseBypass     bool
}

type targetScaleGob struct {
	Kind  int
	Scale float64
	Base  float64
}

type modelHeader struct {
	Version      int
	Hidden       int
	Delta        float64
	UseMask      bool
	UseAttention bool
	LinearBypass bool
	Paths        []string
	ScalerMax    []float64
	Pairs        []app.Pair
	Scales       []targetScaleGob
}

// snapshotVersion guards the serialized layout. Version 1 was one gob value
// holding every expert; its header fields decode here, so a v1 stream is
// refused by number.
const snapshotVersion = 2

// Save writes the trained model to w as a gob stream, one expert at a time.
func (m *Model) Save(w io.Writer) error {
	h := modelHeader{
		Version:      snapshotVersion,
		Hidden:       m.Cfg.Hidden,
		Delta:        m.Cfg.Delta,
		UseMask:      m.Cfg.UseMask,
		UseAttention: m.Cfg.UseAttention,
		LinearBypass: m.Cfg.LinearBypass,
		Paths:        m.Space.Paths(),
		ScalerMax:    m.FeatScaler.Max,
		Pairs:        m.Pairs,
	}
	for _, p := range m.Pairs {
		ts := m.TargetScales[p]
		h.Scales = append(h.Scales, targetScaleGob{Kind: int(ts.Kind), Scale: ts.Scale, Base: ts.Base})
	}
	enc := gob.NewEncoder(w)
	if err := enc.Encode(h); err != nil {
		return fmt.Errorf("estimator: encode model header: %w", err)
	}
	var params []paramGob
	for _, p := range m.Pairs {
		e := m.Experts[p]
		params = params[:0]
		for _, par := range e.Params() {
			params = append(params, paramGob{Name: par.Name, Rows: par.Rows, Cols: par.Cols, Data: par.Data})
		}
		err := enc.Encode(expertGob{
			Pair:         e.Pair,
			InDim:        e.InDim,
			Hidden:       e.Hidden,
			Peers:        e.Attn.Peers,
			Params:       params,
			UseMask:      e.UseMask,
			UseAttention: e.UseAttention,
			UseBypass:    e.UseBypass,
		})
		if err != nil {
			return fmt.Errorf("estimator: encode expert %s: %w", p, err)
		}
	}
	return nil
}

// Load reads a model previously written by Save. It reads checkpoint files
// and downloaded bodies, so it trusts nothing: a stream that ends before
// the header's last expert, an expert whose shape is not the header's, a
// peer list that is not "every other pair, in order", a non-finite weight
// or scale are all errors — what Load returns compiles (infer.Compile) and
// predicts the same on the tape and the engine. Nothing is sized from a
// number the header states: every parameter is what gob decoded — which gob
// bounds by the bytes actually present — checked against the header's shape
// before an expert is carved for it, so a header claiming more than the
// stream holds is refused at its first expert.
func Load(r io.Reader) (*Model, error) {
	dec := gob.NewDecoder(r)
	var h modelHeader
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("estimator: decode model: %w", err)
	}
	if h.Version != snapshotVersion {
		return nil, fmt.Errorf("estimator: unsupported model version %d (want %d)", h.Version, snapshotVersion)
	}
	space := features.RestoreSpace(h.Paths)
	dim := space.Dim()
	if len(h.Pairs) == 0 || len(h.Scales) != len(h.Pairs) || h.Hidden <= 0 ||
		dim == 0 || dim != len(h.Paths) || len(h.ScalerMax) != dim {
		return nil, fmt.Errorf("estimator: corrupt snapshot: %d pairs, %d scales, hidden %d, %d paths (%d distinct), %d scaler maxima",
			len(h.Pairs), len(h.Scales), h.Hidden, len(h.Paths), dim, len(h.ScalerMax))
	}
	for _, v := range h.ScalerMax {
		if !(v > 0 && finite(v)) {
			return nil, fmt.Errorf("estimator: corrupt snapshot: feature maximum %v", v)
		}
	}
	names := make([]string, len(h.Pairs))
	for i, p := range h.Pairs {
		names[i] = p.String()
	}

	cfg := DefaultConfig()
	cfg.Hidden = h.Hidden
	cfg.Delta = h.Delta
	cfg.UseMask = h.UseMask
	cfg.UseAttention = h.UseAttention
	cfg.LinearBypass = h.LinearBypass
	m := &Model{
		Cfg:          cfg,
		Space:        space,
		FeatScaler:   &features.Scaler{Max: h.ScalerMax},
		Pairs:        h.Pairs,
		Experts:      make(map[app.Pair]*Expert, len(h.Pairs)),
		TargetScales: make(map[app.Pair]*TargetScale, len(h.Pairs)),
	}
	var eg expertGob
	for i, p := range h.Pairs {
		if _, dup := m.Experts[p]; dup {
			return nil, fmt.Errorf("estimator: corrupt snapshot: pair %s listed twice", p)
		}
		sc := h.Scales[i]
		if (sc.Kind != int(kindLevel) && sc.Kind != int(kindDelta)) || !(sc.Scale > 0 && finite(sc.Scale) && finite(sc.Base)) {
			return nil, fmt.Errorf("estimator: corrupt snapshot: %s: target scale %+v", p, sc)
		}
		// One value for every expert: gob decodes into a slice that has room,
		// so the parameters' values land in the previous expert's buffers,
		// which expert copies out of. Every field is reset first — gob leaves
		// a field the stream does not carry as it was — and Peers is fresh,
		// the expert keeps it.
		for j := range eg.Params {
			eg.Params[j] = paramGob{Data: eg.Params[j].Data[:0]}
		}
		eg = expertGob{Params: eg.Params}
		if err := dec.Decode(&eg); err != nil {
			return nil, fmt.Errorf("estimator: decode expert %d of %d: %w", i+1, len(h.Pairs), err)
		}
		if eg.Pair != p || eg.InDim != dim || eg.Hidden != h.Hidden {
			return nil, fmt.Errorf("estimator: corrupt snapshot: expert %d is %s (%d→%d), header says %s (%d→%d)",
				i+1, eg.Pair, eg.InDim, eg.Hidden, p, dim, h.Hidden)
		}
		if len(eg.Peers) != len(names)-1 {
			return nil, fmt.Errorf("estimator: expert %s: %d peers among %d experts", p, len(eg.Peers), len(names))
		}
		for k, peer := range eg.Peers {
			want := names[k]
			if k >= i {
				want = names[k+1]
			}
			if peer != want {
				return nil, fmt.Errorf("estimator: expert %s: peer %d is %q, want %q", p, k, peer, want)
			}
			eg.Peers[k] = want // one copy of each name per model, not one per expert
		}
		e, err := eg.expert()
		if err != nil {
			return nil, fmt.Errorf("estimator: expert %s: %w", p, err)
		}
		m.Experts[p] = e
		m.TargetScales[p] = &TargetScale{Kind: targetKind(sc.Kind), Scale: sc.Scale, Base: sc.Base}
	}
	return m, nil
}

// fills reports whether n values fill a rows×cols matrix, without forming
// the product of two dimensions read from the stream.
func fills(n, rows, cols int) bool {
	if rows <= 0 || cols <= 0 {
		return n == 0 && rows >= 0 && cols >= 0
	}
	return n%rows == 0 && n/rows == cols
}

// expert rebuilds the expert from the decoded parameter slices, each checked
// against the shape an expert of these dimensions has, and copied into
// parameters carved from one allocation, as newExpert's are.
func (eg *expertGob) expert() (*Expert, error) {
	in, hid := eg.InDim, eg.Hidden
	shapes := expertShapes("", in, hid, len(eg.Peers))
	if len(eg.Params) != len(shapes) {
		return nil, fmt.Errorf("snapshot has %d params, expected %d", len(eg.Params), len(shapes))
	}
	for j, pg := range eg.Params {
		rows, cols := shapes[j].Rows, shapes[j].Cols
		if pg.Rows != rows || pg.Cols != cols || !fills(len(pg.Data), rows, cols) {
			return nil, fmt.Errorf("param %s: shape %dx%d with %d values in snapshot, expected %dx%d",
				pg.Name, pg.Rows, pg.Cols, len(pg.Data), rows, cols)
		}
		for _, v := range pg.Data {
			if !finite(v) {
				return nil, fmt.Errorf("param %s: non-finite value %v", pg.Name, v)
			}
		}
		shapes[j].Name = pg.Name
	}
	ps := ad.Carve(shapes)
	for j, pg := range eg.Params {
		copy(ps[j].Data, pg.Data)
	}
	return expertOf(eg.Pair, in, hid, eg.Peers, ps, eg.UseMask, eg.UseAttention, eg.UseBypass), nil
}

// finite reports whether v is neither NaN nor ±Inf: v−v is 0 for every
// finite v and NaN otherwise.
func finite(v float64) bool { return v-v == 0 }
