package estimator

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/nn/ad"
	"repro/internal/nn/layers"
	"repro/internal/nn/loss"
	"repro/internal/testutil"
)

// trainExpertHeadTape is phase B for one expert on the training tape, as it
// ran before the panel trainer (layers.Workspace.FitHeads) replaced it: per
// chunk one WeightedSumConst forms the contexts, and every window records
// Column, Concat, the head's Dense and the bypass Add before its Pinball. It
// is the reference the panel trainer is held to, bit for bit.
func trainExpertHeadTape(ws *layers.Workspace, e *Expert, target []float64, peers *peerStates, cfg Config, q []float64, seed int64) error {
	bypass := peers.Bypass(peers.self)
	h, tgt := make([]float64, e.Hidden), make([]float64, len(q))
	var ctx *ad.Value
	from := 0
	c := layers.Chunks{
		Windows: len(target), Len: cfg.ChunkLen, Epochs: cfg.AttentionEpochs, LR: cfg.LR, ClipNorm: cfg.ClipNorm,
		Loss: func(tape *ad.Tape, t int, first bool) *ad.Value {
			if first {
				ctx, from = peers.attend(tape, e.Attn, t), t
			}
			peers.State(h, peers.self, t)
			y := e.Head.Apply(tape, tape.Concat(tape.Column(ctx, t-from), tape.Const(h)))
			if e.UseBypass {
				y = tape.Add(y, tape.Const(bypass[3*t:3*t+3]))
			}
			for j := range tgt {
				tgt[j] = target[t]
			}
			return tape.Pinball(y, tgt, q)
		},
		Epoch: progress(cfg, PhaseAttention, cfg.AttentionEpochs, func(int) app.Pair { return e.Pair }),
	}
	run := layers.Run{Name: e.Pair.String(), Params: append(e.Head.Params(), e.Attn.Params()...), Rng: rand.New(rand.NewSource(seed))}
	return ws.Train([]layers.Run{run}, c)
}

// phaseBFixture builds two identical models over the first pairs pairs of a
// two-day toy run (in pair order) and the slab of their frozen trajectories.
func phaseBFixture(t *testing.T, pairs int, cfg Config) (tape, panel *Model, slab *layers.Slab, targets map[app.Pair][]float64) {
	t.Helper()
	_, _, run := testutil.ToyTelemetry(t, 2, 30, 5)
	all := make([]app.Pair, 0, len(run.Usage))
	for p := range run.Usage {
		all = append(all, p)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].String() < all[j].String() })
	if len(all) < pairs {
		t.Fatalf("the toy run has %d pairs, want %d", len(all), pairs)
	}
	usage := testutil.FocusPairs(run.Usage, all[:pairs]...)
	tape, x, targets, err := buildModel(run.Windows, usage, cfg)
	if err != nil {
		t.Fatal(err)
	}
	panel, _, _, err = buildModel(run.Windows, usage, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if slab, err = tape.allHiddenStates(x, cfg.ChunkLen); err != nil {
		t.Fatal(err)
	}
	return tape, panel, slab, targets
}

// headBits is every bit of an expert's phase-B weights: α, then V's W and b.
func headBits(e *Expert) []uint64 {
	var out []uint64
	for _, p := range []*ad.Param{e.Attn.Alpha, e.Head.W, e.Head.B} {
		for _, v := range p.Data {
			out = append(out, math.Float64bits(v))
		}
	}
	return out
}

// TestPanelTrainerMatchesTape holds phase B's panel trainer to the tape it
// replaced on shapes the goldens do not reach: a chunk shorter than the
// series (every expert its own chunk order, so a panel's experts step on
// different chunks), a panel count that leaves a short last panel, and a
// width that is not a multiple of four. Every expert's α, W and b and every
// epoch's loss must have the tape's bits.
func TestPanelTrainerMatchesTape(t *testing.T) {
	for _, c := range []struct {
		name                 string
		pairs, hidden, chunk int
	}{
		{"chunk 16 of 96", 6, 12, 16},
		{"7 experts", 7, 12, 96},
		{"hidden 7", 5, 7, 24},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Hidden, cfg.ChunkLen, cfg.AttentionEpochs = c.hidden, c.chunk, 3
			tapeM, panelM, slab, targets := phaseBFixture(t, c.pairs, cfg)
			q := loss.Quantiles(cfg.Delta)

			tapeRec, panelRec := newLossRecorder(), newLossRecorder()
			tapeCfg := cfg
			tapeCfg.Progress = tapeRec.hook
			for i, p := range tapeM.Pairs {
				if err := trainExpertHeadTape(newWorkspace(), tapeM.Experts[p], targets[p], &peerStates{slab, i}, tapeCfg, q[:], cfg.Seed+1000+int64(i)); err != nil {
					t.Fatal(err)
				}
			}
			cfg.Progress = panelRec.hook
			if err := panelM.trainAttention(slab, targets, cfg, q[:]); err != nil {
				t.Fatal(err)
			}

			for _, p := range tapeM.Pairs {
				want, got := headBits(tapeM.Experts[p]), headBits(panelM.Experts[p])
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: weight %d of α∥W∥b is %v, the tape's %v", p, i, math.Float64frombits(got[i]), math.Float64frombits(want[i]))
					}
				}
				key := p.String() + "|" + PhaseAttention
				wl, gl := tapeRec.losses[key], panelRec.losses[key]
				if len(wl) != cfg.AttentionEpochs || len(gl) != len(wl) {
					t.Fatalf("%s: %d panel epoch losses, %d tape ones", p, len(gl), len(wl))
				}
				for ep := range wl {
					if math.Float64bits(gl[ep]) != math.Float64bits(wl[ep]) {
						t.Fatalf("%s epoch %d: loss %v, the tape's %v", p, ep+1, gl[ep], wl[ep])
					}
				}
			}
		})
	}
}

// TestPanelTrainerRefusesNonFinitePeerState: a NaN in one expert's frozen
// state reaches every context of its window — α starts at zero, and 0·NaN is
// NaN — so the first chunk of every panel is refused, the error names an
// expert, and no weight moves: the tape refuses the same chunk.
func TestPanelTrainerRefusesNonFinitePeerState(t *testing.T) {
	cfg := testConfig()
	cfg.ChunkLen = 96 // one chunk: every expert's first
	_, m, slab, targets := phaseBFixture(t, 5, cfg)
	rows, _, stride := slab.Block(0)
	rows[2*stride+5] = math.NaN() // expert 2, unit 0, window 5
	before := map[app.Pair][]uint64{}
	for _, p := range m.Pairs {
		before[p] = headBits(m.Experts[p])
	}
	q := loss.Quantiles(cfg.Delta)
	err := m.trainAttention(slab, targets, cfg, q[:])
	if err == nil || !strings.Contains(err.Error(), "non-finite training loss") {
		t.Fatalf("phase B over a NaN peer state: err = %v", err)
	}
	named := false
	for _, p := range m.Pairs {
		named = named || strings.Contains(err.Error(), p.String())
		got := headBits(m.Experts[p])
		for i, b := range before[p] {
			if got[i] != b {
				t.Fatalf("%s: weight %d moved on a refused chunk", p, i)
			}
		}
	}
	if !named {
		t.Fatalf("the refusal names no expert: %v", err)
	}
}
