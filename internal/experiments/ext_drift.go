package experiments

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/estimator"
	"repro/internal/estimator/infer"
	"repro/internal/eval"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ExtDrift exercises the §6 adaptation story at experiment scale: a new
// application version ships whose /composePost handler costs 40% more CPU.
// The stale model mis-estimates the changed components; one day of
// continued training on fresh telemetry (estimator.Model.Update) repairs
// the estimates without a full re-learn.
func (r *Runner) ExtDrift() (Result, error) {
	l, err := r.Social()
	if err != nil {
		return Result{}, err
	}
	w := r.P.Out

	// The new version: every ComposePostService visit costs 1.4x CPU.
	drifted := scaleComponentCPU(l.Spec, "ComposePostService", 1.4)
	// Warm the drifted cluster through the (historical) learning phase —
	// same seed, same streams — then serve two fresh days on the new
	// version: one to adapt on, one to evaluate on.
	cluster, _, _, err := sim.Simulate(drifted, l.learnProgram(), l.clusterSeed, nil)
	if err != nil {
		return Result{}, err
	}
	freshDays := make([]workload.DaySpec, 2)
	for i := range freshDays {
		freshDays[i] = workload.DaySpec{Shape: l.LearnShape, Mix: l.Mix, PeakRPS: l.PeakRPS}
	}
	fresh := l.program(freshDays, l.P.Seed+640).Generate()
	run, err := cluster.Run(fresh)
	if err != nil {
		return Result{}, err
	}
	adaptTo := l.WPD
	adaptRun := run.Slice(0, adaptTo)
	evalRun := run.Slice(adaptTo, run.NumWindows())

	target := app.Pair{Component: "ComposePostService", Resource: app.CPU}
	control := app.Pair{Component: "UserTimelineService", Resource: app.CPU}

	// Update mutates the model, so retrain a private copy for this
	// experiment and keep the shared lab's system pristine.
	trainUsage := make(map[app.Pair][]float64, len(l.Pairs))
	for _, p := range l.Pairs {
		trainUsage[p] = l.LearnRun.Usage[p]
	}
	model, err := estimator.Train(l.LearnRun.Windows, trainUsage, l.P.estimatorConfig())
	if err != nil {
		return Result{}, err
	}

	// Each measurement compiles its own engine: Update changes the weights
	// (and a delta pair's base) under any engine compiled before it.
	mapeOnEval := func() (map[app.Pair]float64, error) {
		eng, err := infer.Compile(model)
		if err != nil {
			return nil, err
		}
		est, err := eng.Predict(model.Space.ExtractSeries(evalRun.Windows))
		if err != nil {
			return nil, err
		}
		out := map[app.Pair]float64{}
		for _, p := range []app.Pair{target, control} {
			out[p] = eval.MAPE(est[p].Exp, evalRun.Usage[p])
		}
		return out, nil
	}
	before, err := mapeOnEval()
	if err != nil {
		return Result{}, err
	}

	usage := make(map[app.Pair][]float64, len(l.Pairs))
	for _, p := range l.Pairs {
		usage[p] = adaptRun.Usage[p]
	}
	unknown, err := model.Update(adaptRun.Windows, usage, 6)
	if err != nil {
		return Result{}, err
	}
	after, err := mapeOnEval()
	if err != nil {
		return Result{}, err
	}

	fmt.Fprintf(w, "concept drift: new version costs 1.4x CPU in ComposePostService (unknown paths: %.0f)\n", unknown)
	fmt.Fprintf(w, "  %-30s %14s %14s\n", "pair", "stale model", "after Update")
	metrics := map[string]float64{"unknown_paths": unknown}
	for _, p := range []app.Pair{target, control} {
		fmt.Fprintf(w, "  %-30s %13.1f%% %13.1f%%\n", p, before[p], after[p])
		metrics[shortPairKey(p)+"_before"] = before[p]
		metrics[shortPairKey(p)+"_after"] = after[p]
	}
	return Result{ID: "drift", Metrics: metrics}, nil
}

// scaleComponentCPU deep-copies a spec with every visit to the component
// costing factor× CPU.
func scaleComponentCPU(spec *app.Spec, component string, factor float64) *app.Spec {
	out := &app.Spec{Name: spec.Name + "-v2", Components: append([]app.Component(nil), spec.Components...)}
	for _, a := range spec.APIs {
		na := app.API{Name: a.Name, PayloadCV: a.PayloadCV}
		for _, t := range a.Templates {
			na.Templates = append(na.Templates, app.Template{Prob: t.Prob, Root: scaleNode(t.Root, component, factor)})
		}
		out.APIs = append(out.APIs, na)
	}
	return out
}

func scaleNode(n *app.PathNode, component string, factor float64) *app.PathNode {
	cost := n.Cost
	if n.Component == component {
		cost.CPUms *= factor
	}
	cp := app.Node(n.Component, n.Operation, cost)
	for _, ch := range n.Children {
		cp.Children = append(cp.Children, scaleNode(ch, component, factor))
	}
	return cp
}
