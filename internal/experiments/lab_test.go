package experiments

import (
	"io"
	"math"
	"testing"

	"repro/internal/app"
	"repro/internal/sim"
	"repro/internal/workload"
)

// sharedLab provisions one quick lab per test binary run.
var sharedLab *Lab

func quickLab(t *testing.T) *Lab {
	t.Helper()
	if testing.Short() {
		t.Skip("provisions a lab")
	}
	if sharedLab == nil {
		p := DefaultParams(io.Discard)
		p.Quick = true
		p.Reps = 1
		l, err := NewSocialLab(p, workload.TwoPeak{})
		if err != nil {
			t.Fatal(err)
		}
		sharedLab = l
	}
	return sharedLab
}

func TestScenarioMixesNormalise(t *testing.T) {
	for name, mix := range map[string]workload.Mix{
		"compose": composeDominatedMix(),
		"read":    readDominatedMix(),
		"unseen":  unseenCompositionMix(),
	} {
		n := mix.Normalize()
		sum := 0.0
		for _, v := range n {
			if v < 0 {
				t.Errorf("%s: negative share", name)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: normalised sum %v", name, sum)
		}
	}
	// The read-dominated mix must actually be read-dominated.
	r := readDominatedMix().Normalize()
	if r["/readTimeline"] < 0.5 {
		t.Errorf("read share = %v", r["/readTimeline"])
	}
}

func TestGroundTruthDeterministic(t *testing.T) {
	l := quickLab(t)
	q := l.queryDay(workload.TwoPeak{}, l.Mix, 1.5*l.PeakRPS, 901)
	a, err := l.GroundTruth(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.GroundTruth(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range l.Pairs {
		sa, sb := a.Usage[p], b.Usage[p]
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("%s window %d: %v vs %v", p, i, sa[i], sb[i])
			}
		}
	}
}

func TestEvaluateInvariants(t *testing.T) {
	l := quickLab(t)
	q := l.queryDay(workload.TwoPeak{}, l.Mix, 1.2*l.PeakRPS, 902)
	ev, err := l.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	n := q.NumWindows()
	if len(ev.Synthetic) != n {
		t.Fatalf("synthetic windows = %d, want %d", len(ev.Synthetic), n)
	}
	for _, p := range l.Pairs {
		if len(ev.Actual[p]) != n {
			t.Fatalf("%s actual length %d", p, len(ev.Actual[p]))
		}
		for _, m := range Methods {
			if len(ev.Series[m][p]) != n {
				t.Fatalf("%s/%s estimate length %d", m, p, len(ev.Series[m][p]))
			}
		}
		if len(ev.Estimates[p].Low) != n || len(ev.Estimates[p].Up) != n {
			t.Fatalf("%s interval lengths wrong", p)
		}
	}
	// Synthesis accuracy of the evaluation must clear the Table-1 bar.
	if acc := l.SynthAccuracy(ev); acc < 90 {
		t.Errorf("synthesis accuracy %.2f%% below 90%%", acc)
	}
}

func TestAttackShifting(t *testing.T) {
	l := quickLab(t)
	// An attack specified relative to the query start must land inside
	// the ground-truth run at the same relative offset.
	q := l.queryDay(workload.TwoPeak{}, l.Mix, l.PeakRPS, 903)
	clean, err := l.GroundTruth(q)
	if err != nil {
		t.Fatal(err)
	}
	attacked, err := l.GroundTruth(q, cryptojackAt(10, 20, "PostStorageMongoDB", 500))
	if err != nil {
		t.Fatal(err)
	}
	p := pairPostCPU()
	for w := 0; w < q.NumWindows(); w++ {
		diff := attacked.Usage[p][w] - clean.Usage[p][w]
		inAttack := w >= 10 && w < 20
		if inAttack && diff < 400 {
			t.Fatalf("window %d: attack not visible (diff %v)", w, diff)
		}
		if !inAttack && math.Abs(diff) > 100 {
			t.Fatalf("window %d: unexpected perturbation %v outside the attack", w, diff)
		}
	}
}

// cryptojackAt builds a query-relative cryptojack injection.
func cryptojackAt(from, to int, component string, mcores float64) sim.Cryptojack {
	return sim.Cryptojack{Component: component, FromWindow: from, ToWindow: to, ExtraCPU: mcores}
}

func pairPostCPU() app.Pair {
	return app.Pair{Component: "PostStorageMongoDB", Resource: app.CPU}
}
