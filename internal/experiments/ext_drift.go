package experiments

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// ExtDrift exercises the §6 adaptation story at experiment scale: a new
// application version ships whose /composePost handler costs 40% more CPU.
// The stale model mis-estimates the changed components; a retrain over one
// day of fresh telemetry, warm-started from the stale model, repairs the
// estimates. It is the retrain `deeprestd -window <one day>` runs on its
// next tick: core.Learn over the store, with the lab's options.
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
	store := telemetry.NewServer(run.WindowSeconds)
	store.RecordRun(run)
	stale := l.System
	adapted, err := core.Learn(store, 0, l.WPD, l.options(), stale.Model())
	if err != nil {
		return Result{}, err
	}
	var unknown float64
	for _, v := range stale.Model().Space.ExtractSeries(run.Slice(0, l.WPD).Windows) {
		unknown += v.Unknown
	}

	target := app.Pair{Component: "ComposePostService", Resource: app.CPU}
	control := app.Pair{Component: "UserTimelineService", Resource: app.CPU}
	evalRun := run.Slice(l.WPD, run.NumWindows())
	mapeOnEval := func(sys *core.System) (map[app.Pair]float64, error) {
		est, err := sys.ExpectedUtilization(evalRun.Windows)
		if err != nil {
			return nil, err
		}
		out := map[app.Pair]float64{}
		for _, p := range []app.Pair{target, control} {
			out[p] = eval.MAPE(est[p].Exp, evalRun.Usage[p])
		}
		return out, nil
	}
	before, err := mapeOnEval(stale)
	if err != nil {
		return Result{}, err
	}
	after, err := mapeOnEval(adapted)
	if err != nil {
		return Result{}, err
	}

	fmt.Fprintf(w, "concept drift: new version costs 1.4x CPU in ComposePostService (unknown paths: %.0f; warm started: %v)\n", unknown, adapted.Warm())
	fmt.Fprintf(w, "  %-30s %14s %14s\n", "pair", "stale model", "after retrain")
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
