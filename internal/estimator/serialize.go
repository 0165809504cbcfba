package estimator

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/app"
	"repro/internal/features"
	"repro/internal/nn/ad"
)

// The serialized form is an explicit snapshot rather than the live object
// graph: it pins the layout (so refactoring internals never silently breaks
// saved models), drops volatile state (loggers, training knobs), and
// rebuilds the expert wiring on load. It is a gob modelHeader, which states
// every fact but the weights once — feature paths, pairs in training order,
// width, switches, target scales — then, per pair in header order, the
// little-endian float64 bits of the expert's parameters in Params order,
// unframed: each expert's shapes, parameter names and peers follow from the
// header. Neither side ever holds more than one expert's bytes, and a reader
// that was cut short knows it: the header states how many experts follow.

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
// holding every expert, version 2 one gob value per expert; both headers
// decode here, so either is refused by number.
const snapshotVersion = 3

// loadPiece bounds, in values, what Load reads from the stream at a time.
const loadPiece = 512

// Save writes the trained model to w: the header, then one expert at a time.
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
	if err := gob.NewEncoder(w).Encode(h); err != nil {
		return fmt.Errorf("estimator: encode model header: %w", err)
	}
	var buf []byte
	for _, p := range m.Pairs {
		e := m.Experts[p]
		buf = slices.Grow(buf[:0], 8*e.NumParams())
		for _, par := range e.Params() {
			for _, v := range par.Data {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
		}
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("estimator: write expert %s: %w", p, err)
		}
	}
	return nil
}

// Load reads a model previously written by Save. It reads checkpoint files
// and downloaded bodies, so it trusts nothing: a stream that ends before
// the header's last expert, a non-finite weight or scale, a header whose
// parts disagree are all errors — what Load returns compiles (infer.Compile)
// and predicts the same on the tape and the engine. Nothing is sized from a
// number the header states, nor from the product of two: an expert is read
// whole rows (or one row's part) at a time, at most loadPiece values per
// read, into a buffer that grows with the bytes actually present, and is
// carved only once it is all there — so a header claiming more than the
// stream holds fails at its first short read. An io.ByteReader (a
// checkpoint's, whose digest follows the model) is read no further than the
// model's last byte; any other reader is buffered.
func Load(r io.Reader) (*Model, error) {
	in, ok := r.(interface {
		io.Reader
		io.ByteReader
	})
	if !ok {
		in = bufio.NewReader(r)
	}
	var h modelHeader
	if err := gob.NewDecoder(in).Decode(&h); err != nil {
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
	var piece [8 * loadPiece]byte
	var vals []float64 // one expert's values, until it is carved
	for i, p := range h.Pairs {
		if _, dup := m.Experts[p]; dup {
			return nil, fmt.Errorf("estimator: corrupt snapshot: pair %s listed twice", p)
		}
		sc := h.Scales[i]
		if (sc.Kind != int(kindLevel) && sc.Kind != int(kindDelta)) || !(sc.Scale > 0 && finite(sc.Scale) && finite(sc.Base)) {
			return nil, fmt.Errorf("estimator: corrupt snapshot: %s: target scale %+v", p, sc)
		}
		peers := peersOf(names, i)
		shapes := expertShapes(names[i], dim, h.Hidden, len(peers))
		vals = vals[:0]
		for _, s := range shapes {
			// A piece is as many whole rows as fit in loadPiece values, or
			// one row in parts when one does not: min(·)·Cols ≤ loadPiece
			// unless it is one row.
			per := max(1, loadPiece/s.Cols)
			for rows := s.Rows; rows > 0; rows -= per {
				for left := min(rows, per) * s.Cols; left > 0; left -= loadPiece {
					b := piece[:8*min(left, loadPiece)]
					if _, err := io.ReadFull(in, b); err != nil {
						return nil, fmt.Errorf("estimator: decode expert %d of %d: %w", i+1, len(h.Pairs), err)
					}
					for k := 0; k < len(b); k += 8 {
						v := math.Float64frombits(binary.LittleEndian.Uint64(b[k:]))
						if !finite(v) {
							return nil, fmt.Errorf("estimator: expert %s: param %s: non-finite value %v", p, s.Name, v)
						}
						vals = append(vals, v)
					}
				}
			}
		}
		// Every shape was read in full, so its size is bounded by the stream.
		ps := ad.Carve(shapes)
		off := 0
		for _, par := range ps {
			off += copy(par.Data, vals[off:])
		}
		m.Experts[p] = expertOf(p, dim, h.Hidden, peers, ps, h.UseMask, h.UseAttention, h.LinearBypass)
		m.TargetScales[p] = &TargetScale{Kind: targetKind(sc.Kind), Scale: sc.Scale, Base: sc.Base}
	}
	return m, nil
}

// finite reports whether v is neither NaN nor ±Inf: v−v is 0 for every
// finite v and NaN otherwise.
func finite(v float64) bool { return v-v == 0 }
