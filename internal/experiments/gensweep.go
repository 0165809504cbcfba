package experiments

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workload"
)

// defaultSweepApps is the production-scale accuracy sweep from
// EXPERIMENTS.md: the same generator seed at three topology sizes.
var defaultSweepApps = []string{
	"gen:seed=7,components=30",
	"gen:seed=7,components=100",
	"gen:seed=7,components=300",
}

// quickSweepApps keeps the quick suite fast while still spanning a 4x size
// range.
var quickSweepApps = []string{
	"gen:seed=7,components=10",
	"gen:seed=7,components=40",
}

// sweepFocusPairs picks a bounded, deterministic set of CPU pairs spread
// evenly across the component list, so training cost stays flat while the
// topology grows. The first component (the entry tier on generated
// topologies) is always included.
func sweepFocusPairs(spec *app.Spec, k int) []app.Pair {
	n := len(spec.Components)
	if k > n {
		k = n
	}
	out := make([]app.Pair, 0, k)
	seen := make(map[string]bool, k)
	for i := 0; i < k; i++ {
		c := spec.Components[i*n/k].Name
		if !seen[c] {
			seen[c] = true
			out = append(out, app.Pair{Component: c, Resource: app.CPU})
		}
	}
	return out
}

// GenSweep trains DeepRest on generated topologies of increasing size and
// reports Mode-1 estimation error at an unseen 2x traffic scale — the
// accuracy half of the EXPERIMENTS.md topology-size sweep (the wall-clock
// half is `go test -bench Topo ./internal/topo`). Unlike the paper-figure labs it trains
// only DeepRest, on a fixed-size focus set of CPU experts, so the sweep
// isolates how estimation quality holds up as the topology grows rather
// than how long full provisioning takes. The app list defaults to
// gen:seed=7 at 30/100/300 components and can be overridden with
// `experiments -app gen:...` (repeatable).
func (r *Runner) GenSweep() (Result, error) {
	apps := r.P.Apps
	if len(apps) == 0 {
		apps = defaultSweepApps
		if r.P.Quick {
			apps = quickSweepApps
		}
	}
	wpd, ws, days, peak := workload.Scale(r.P.Quick)
	metrics := map[string]float64{}
	fmt.Fprintf(r.P.Out, "  %-34s %10s %7s %12s %12s\n",
		"app", "components", "experts", "mean MAPE", "worst MAPE")
	for i, arg := range apps {
		spec, mix, err := topo.Resolve(arg)
		if err != nil {
			return Result{}, fmt.Errorf("gensweep: %w", err)
		}
		l := &Lab{
			P:          r.P,
			Spec:       spec,
			LearnShape: workload.TwoPeak{},
			Mix:        mix,
			PeakRPS:    peak,
			LearnDays:  days,
			WPD:        wpd,
			WindowSec:  ws,

			clusterSeed: r.P.Seed + 700 + int64(i)*13,
		}
		_, l.LearnTraffic, l.LearnRun, err = sim.Simulate(spec, l.learnProgram(), l.clusterSeed, nil)
		if err != nil {
			return Result{}, fmt.Errorf("gensweep: %s: learning-phase simulation: %w", arg, err)
		}
		l.Pairs = sweepFocusPairs(spec, 6)
		usage := make(map[app.Pair][]float64, len(l.Pairs))
		for _, p := range l.Pairs {
			usage[p] = l.LearnRun.Usage[p]
		}
		opts := core.DefaultOptions()
		opts.Estimator = r.P.estimatorConfig()
		l.System, err = core.LearnFromData(l.LearnRun.Windows, usage, opts)
		if err != nil {
			return Result{}, fmt.Errorf("gensweep: %s: train: %w", arg, err)
		}

		// Unseen 2x scale, one day — the Figure 14 scenario on the
		// generated topology.
		query := l.program(
			[]workload.DaySpec{{Shape: workload.TwoPeak{}, Mix: l.Mix, PeakRPS: l.PeakRPS * 2}},
			r.P.Seed+800+int64(i)*31,
		).Generate()
		truth, err := l.GroundTruth(query)
		if err != nil {
			return Result{}, fmt.Errorf("gensweep: %s: ground truth: %w", arg, err)
		}
		synthetic, err := l.System.Synthesizer().Synthesize(query, r.P.Seed+11)
		if err != nil {
			return Result{}, fmt.Errorf("gensweep: %s: synthesize: %w", arg, err)
		}
		est, err := l.System.ExpectedUtilization(synthetic)
		if err != nil {
			return Result{}, fmt.Errorf("gensweep: %s: predict: %w", arg, err)
		}
		mean, worst := 0.0, 0.0
		for _, p := range l.Pairs {
			m := eval.MAPE(est[p].Exp, truth.Usage[p])
			mean += m
			if m > worst {
				worst = m
			}
		}
		mean /= float64(len(l.Pairs))
		fmt.Fprintf(r.P.Out, "  %-34s %10d %7d %11.1f%% %11.1f%%\n",
			arg, len(spec.Components), len(l.Pairs), mean, worst)
		size := len(spec.Components)
		metrics[fmt.Sprintf("gen%d_mape_mean", size)] = mean
		metrics[fmt.Sprintf("gen%d_mape_worst", size)] = worst
	}
	return Result{ID: "gensweep", Metrics: metrics}, nil
}
