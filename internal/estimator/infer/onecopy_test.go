package infer

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/estimator"
	"repro/internal/nn/ad"
	"repro/internal/testutil"
)

// TestEngineHoldsOneCopyOfWeights: every slice the kernels read is the Data
// of one of the model's parameters — same first element, same length — for a
// trained model and for a loaded one, and no parameter of either carries a
// gradient. Only the σ(mask) gate and the attention matrix are the engine's
// own.
func TestEngineHoldsOneCopyOfWeights(t *testing.T) {
	_, _, run := testutil.ToyTelemetry(t, 1, 30, 5)
	cfg := estimator.DefaultConfig()
	cfg.Epochs, cfg.AttentionEpochs, cfg.ChunkLen = 2, 1, 24
	trained, _, err := estimator.TrainWarm(run.Windows, run.Usage, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trained.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := estimator.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*estimator.Model{"trained": trained, "loaded": loaded} {
		eng, err := Compile(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, p := range m.Pairs {
			ex, view := m.Experts[p], &eng.experts[i]
			for _, par := range ex.Params() {
				if par.Grad != nil {
					t.Errorf("%s %s: parameter %s carries a gradient", name, p, par.Name)
				}
			}
			if view.cell != ex.Cell {
				t.Errorf("%s %s: the engine steps a GRU that is not the expert's", name, p)
			}
			for what, pair := range map[string][2][]float64{
				"head W":   {eng.heads[i].HeadW, ex.Head.W.Data},
				"head b":   {eng.heads[i].HeadB, ex.Head.B.Data},
				"bypass W": {view.bypass.W.Data, ex.Bypass.W.Data},
				"bypass b": {view.bypass.B.Data, ex.Bypass.B.Data},
			} {
				got, want := pair[0], pair[1]
				if len(got) != len(want) || len(got) == 0 || &got[0] != &want[0] {
					t.Errorf("%s %s: %s is a copy of the parameter, or not it at all", name, p, what)
				}
			}
			// α is the engine's row of the attention matrix: the weights at
			// the peers' columns, in order, and +0 at its own.
			P := len(m.Pairs)
			row := eng.attn[i*P : (i+1)*P]
			want := append(append(append([]float64(nil), ex.Attn.Alpha.Data[:i]...), 0), ex.Attn.Alpha.Data[i:]...)
			for j := range row {
				if math.Float64bits(row[j]) != math.Float64bits(want[j]) {
					t.Errorf("%s %s: attention matrix row %d column %d is %v, want %v", name, p, i, j, row[j], want[j])
				}
			}
			if len(view.mask) != len(ex.Mask.M.Data) || &view.mask[0] == &ex.Mask.M.Data[0] {
				t.Errorf("%s %s: the σ(mask) gate must be the engine's own %d floats", name, p, len(ex.Mask.M.Data))
			}
		}
	}
}

// TestCompileRowsAreAttentionRows: the engine's attention matrix is
// ad.AttentionRow's rows — the rule the tape's attention op reads too — for a
// model whose weights are set by hand, a −0 among them.
func TestCompileRowsAreAttentionRows(t *testing.T) {
	_, _, run := testutil.ToyTelemetry(t, 1, 30, 5)
	cfg := estimator.DefaultConfig()
	cfg.Epochs, cfg.AttentionEpochs = 0, 0
	m, _, err := estimator.TrainWarm(run.Windows, run.Usage, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	P := len(m.Pairs)
	for i, p := range m.Pairs {
		for k := range m.Experts[p].Attn.Alpha.Data {
			m.Experts[p].Attn.Alpha.Data[k] = float64(100*i + k + 1)
		}
	}
	m.Experts[m.Pairs[P-1]].Attn.Alpha.Data[0] = math.Copysign(0, -1)
	eng, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, P)
	for i, p := range m.Pairs {
		ad.AttentionRow(want, m.Experts[p].Attn.Alpha.Data, i)
		for j, w := range want {
			if got := eng.attn[i*P+j]; math.Float64bits(got) != math.Float64bits(w) {
				t.Fatalf("%s: matrix row %d column %d = %v, AttentionRow's %v", p, i, j, got, w)
			}
		}
	}
}
