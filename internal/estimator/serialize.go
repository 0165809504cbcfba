package estimator

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/app"
	"repro/internal/features"
	"repro/internal/nn/ad"
	"repro/internal/nn/layers"
)

// The on-disk format is an explicit snapshot rather than the live object
// graph: it pins the layout (so refactoring internals never silently breaks
// saved models), drops volatile state (gradients, loggers), and rebuilds
// the expert wiring on load.

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

type modelGob struct {
	Version      int
	Hidden       int
	Delta        float64
	UseMask      bool
	UseAttention bool
	LinearBypass bool
	Paths        []string
	ScalerMax    []float64
	Pairs        []app.Pair
	Experts      []expertGob
	Scales       []targetScaleGob
}

// snapshotVersion guards the serialized layout.
const snapshotVersion = 1

// Save writes the trained model to w in gob format.
func (m *Model) Save(w io.Writer) error {
	g := modelGob{
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
		e := m.Experts[p]
		eg := expertGob{
			Pair:         e.Pair,
			InDim:        e.InDim,
			Hidden:       e.Hidden,
			Peers:        e.Attn.Peers,
			UseMask:      e.UseMask,
			UseAttention: e.UseAttention,
			UseBypass:    e.UseBypass,
		}
		for _, par := range e.Params() {
			eg.Params = append(eg.Params, paramGob{
				Name: par.Name, Rows: par.Rows, Cols: par.Cols, Data: par.Data,
			})
		}
		g.Experts = append(g.Experts, eg)
		ts := m.TargetScales[p]
		g.Scales = append(g.Scales, targetScaleGob{Kind: int(ts.Kind), Scale: ts.Scale, Base: ts.Base})
	}
	return gob.NewEncoder(w).Encode(g)
}

// Load reads a model previously written by Save.
func Load(r io.Reader) (*Model, error) {
	var g modelGob
	if err := gob.NewDecoder(r).Decode(&g); err != nil {
		return nil, fmt.Errorf("estimator: decode model: %w", err)
	}
	if g.Version != snapshotVersion {
		return nil, fmt.Errorf("estimator: unsupported model version %d (want %d)", g.Version, snapshotVersion)
	}
	if len(g.Experts) != len(g.Pairs) || len(g.Scales) != len(g.Pairs) {
		return nil, fmt.Errorf("estimator: corrupt snapshot: %d pairs, %d experts, %d scales",
			len(g.Pairs), len(g.Experts), len(g.Scales))
	}
	cfg := DefaultConfig()
	cfg.Hidden = g.Hidden
	cfg.Delta = g.Delta
	cfg.UseMask = g.UseMask
	cfg.UseAttention = g.UseAttention
	cfg.LinearBypass = g.LinearBypass

	m := &Model{
		Cfg:          cfg,
		Space:        features.RestoreSpace(g.Paths),
		FeatScaler:   &features.Scaler{Max: g.ScalerMax},
		Pairs:        g.Pairs,
		Experts:      make(map[app.Pair]*Expert, len(g.Pairs)),
		TargetScales: make(map[app.Pair]*TargetScale, len(g.Pairs)),
	}
	for i, eg := range g.Experts {
		e := &Expert{
			Pair:         eg.Pair,
			InDim:        eg.InDim,
			Hidden:       eg.Hidden,
			Mask:         layers.NewAPIMask(eg.Pair.String(), eg.InDim),
			Cell:         layers.NewGRUCellZero(eg.Pair.String(), eg.InDim, eg.Hidden),
			Attn:         layers.NewAttention(eg.Pair.String(), eg.Peers),
			Head:         layers.NewDenseZero(eg.Pair.String()+".V", 2*eg.Hidden, 3),
			Bypass:       layers.NewDenseZero(eg.Pair.String()+".S", eg.InDim, 3),
			UseMask:      eg.UseMask,
			UseAttention: eg.UseAttention,
			UseBypass:    eg.UseBypass,
		}
		params := e.Params()
		if len(params) != len(eg.Params) {
			return nil, fmt.Errorf("estimator: expert %s: snapshot has %d params, expected %d",
				eg.Pair, len(eg.Params), len(params))
		}
		for j, pg := range eg.Params {
			if err := restoreParam(params[j], pg); err != nil {
				return nil, fmt.Errorf("estimator: expert %s: %w", eg.Pair, err)
			}
		}
		m.Experts[eg.Pair] = e
		m.TargetScales[eg.Pair] = &TargetScale{
			Kind:  targetKind(g.Scales[i].Kind),
			Scale: g.Scales[i].Scale,
			Base:  g.Scales[i].Base,
		}
	}
	return m, nil
}

func restoreParam(dst *ad.Param, src paramGob) error {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		return fmt.Errorf("param %s: shape %dx%d in snapshot, expected %dx%d",
			src.Name, src.Rows, src.Cols, dst.Rows, dst.Cols)
	}
	copy(dst.Data, src.Data)
	return nil
}
