// Package experiments contains one driver per table and figure of the
// paper's evaluation (§5) plus the §6 interpretation artifacts. Each driver
// prints the same rows/series the paper reports and returns its headline
// metrics so tests and EXPERIMENTS.md can assert the reproduction's shape:
// who wins, by roughly what factor, and where the crossovers fall.
package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/app"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/eval"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Method names used across all experiment output. The first four are the
// paper's §5.1 comparison; the seasonal-AR forecaster is an additional
// reference point from the ARIMA family the paper cites ([18]).
const (
	MethodDeepRest       = "DeepRest"
	MethodResourceAware  = "Resrc-aware DL"
	MethodSimpleScaling  = "Simple Scaling"
	MethodComponentAware = "Component-aware"
	MethodSeasonalAR     = "Seasonal AR"
)

// Methods lists all techniques in presentation order.
var Methods = []string{MethodDeepRest, MethodResourceAware, MethodSimpleScaling, MethodComponentAware, MethodSeasonalAR}

// Params configures an experiment run.
type Params struct {
	// Out receives the experiment's printed artifact.
	Out io.Writer
	// Quick shrinks the workload and training so the full suite runs in
	// seconds (used by tests and benchmarks); the full setting mirrors
	// the paper's 7-day learning phase.
	Quick bool
	// Seed drives every random choice.
	Seed int64
	// Reps is the number of query repetitions per scenario (the paper
	// uses nine and reports the worst case).
	Reps int
	// Apps overrides the topology-size sweep's application list (gensweep).
	// Each entry is a cmd -app spec: social|hotel|media, @file.json, or
	// gen:seed=N,components=N. Empty means the default 30/100/300 sweep.
	Apps []string
}

// DefaultParams returns full-scale parameters writing to w.
func DefaultParams(w io.Writer) Params {
	return Params{Out: w, Seed: 1, Reps: 3}
}

func (p Params) estimatorConfig() estimator.Config {
	cfg := estimator.DefaultConfig()
	cfg.Seed = p.Seed
	if p.Quick {
		cfg.Hidden = 4
		cfg.Epochs = 30
		cfg.AttentionEpochs = 4
		cfg.ChunkLen = 24
	}
	return cfg
}

func (p Params) raConfig() baselines.RAConfig {
	cfg := baselines.DefaultRAConfig()
	cfg.Seed = p.Seed + 7
	if p.Quick {
		cfg.Hidden = 4
		cfg.Epochs = 30
		cfg.ChunkLen = 24
	}
	return cfg
}

// SocialFocusPairs is the set of (component, resource) pairs the paper's
// figures report on for the social network: the four Figure 12/14–16
// components plus the media pipeline needed for Figures 8 and 22.
func SocialFocusPairs() []app.Pair {
	var out []app.Pair
	for _, c := range []string{"FrontendNGINX", "MediaNGINX", "ComposePostService", "UserTimelineService"} {
		out = append(out, app.Pair{Component: c, Resource: app.CPU}, app.Pair{Component: c, Resource: app.Memory})
	}
	for _, c := range []string{"PostStorageMongoDB", "MediaMongoDB"} {
		for _, r := range app.AllResources {
			out = append(out, app.Pair{Component: c, Resource: r})
		}
	}
	return out
}

// Lab is a fully provisioned experiment fixture: a simulated deployment,
// its learning-phase telemetry, a trained DeepRest system, and the three
// trained baselines. Labs are cached by the registry so consecutive
// experiments in one process reuse the same trained models, exactly like
// the paper reuses one application-learning phase across queries.
type Lab struct {
	P          Params
	Spec       *app.Spec
	LearnShape workload.Shape
	Mix        workload.Mix
	PeakRPS    float64
	LearnDays  int
	WPD        int
	WindowSec  float64

	LearnTraffic *workload.Traffic
	LearnRun     *sim.Run
	Pairs        []app.Pair
	System       *core.System
	RA           *baselines.ResourceAware
	Simple       *baselines.SimpleScaling
	CompAware    *baselines.ComponentAware
	AR           *baselines.AR

	clusterSeed int64
}

// NewSocialLab provisions the social-network lab with the given learning
// shape (TwoPeak for most experiments, Flat for the reverse direction of
// Figure 16).
func NewSocialLab(p Params, shape workload.Shape) (*Lab, error) {
	spec, mix, err := topo.Resolve("social")
	if err != nil {
		return nil, err
	}
	wpd, ws, days, peak := workload.Scale(p.Quick)
	l := &Lab{
		P:          p,
		Spec:       spec,
		LearnShape: shape,
		Mix:        mix,
		PeakRPS:    peak,
		LearnDays:  days,
		WPD:        wpd,
		WindowSec:  ws,
		Pairs:      SocialFocusPairs(),

		clusterSeed: p.Seed + 100,
	}
	return l, l.provision()
}

// NewHotelLab provisions the hotel-reservation lab for Figure 17.
func NewHotelLab(p Params) (*Lab, error) {
	spec, mix, err := topo.Resolve("hotel")
	if err != nil {
		return nil, err
	}
	wpd, ws, days, peak := workload.Scale(p.Quick)
	l := &Lab{
		P:          p,
		Spec:       spec,
		LearnShape: workload.TwoPeak{},
		Mix:        mix,
		PeakRPS:    peak * 0.7,
		LearnDays:  days,
		WPD:        wpd,
		WindowSec:  ws,
		Pairs: []app.Pair{
			{Component: "FrontendService", Resource: app.CPU},
			{Component: "FrontendService", Resource: app.Memory},
			{Component: "SearchService", Resource: app.CPU},
			{Component: "ProfileService", Resource: app.CPU},
			{Component: "ReserveMongoDB", Resource: app.CPU},
			{Component: "ReserveMongoDB", Resource: app.WriteIOps},
			{Component: "ReserveMongoDB", Resource: app.DiskUsage},
		},
		clusterSeed: p.Seed + 200,
	}
	return l, l.provision()
}

// program builds a traffic program over this lab's geometry.
func (l *Lab) program(days []workload.DaySpec, seed int64) workload.Program {
	return workload.Program{
		Days:          days,
		WindowsPerDay: l.WPD,
		WindowSeconds: l.WindowSec,
		DayJitter:     0.05,
		MixJitter:     0.15,
		PhaseSpread:   0.05,
		NoiseCV:       0.06,
		Seed:          seed,
	}
}

// learnProgram is the application-learning traffic program.
func (l *Lab) learnProgram() workload.Program {
	days := make([]workload.DaySpec, l.LearnDays)
	for i := range days {
		days[i] = workload.DaySpec{Shape: l.LearnShape, Mix: l.Mix, PeakRPS: l.PeakRPS}
	}
	return l.program(days, l.P.Seed+300)
}

// options are the learning options of the lab's DeepRest system: the run's
// estimator configuration over the lab's pairs.
func (l *Lab) options() core.Options {
	opts := core.DefaultOptions()
	opts.Estimator = l.P.estimatorConfig()
	opts.Pairs = l.Pairs
	return opts
}

func (l *Lab) provision() error {
	var err error
	_, l.LearnTraffic, l.LearnRun, err = sim.Simulate(l.Spec, l.learnProgram(), l.clusterSeed, nil)
	if err != nil {
		return fmt.Errorf("experiments: learning-phase simulation: %w", err)
	}

	usage := make(map[app.Pair][]float64, len(l.Pairs))
	for _, p := range l.Pairs {
		usage[p] = l.LearnRun.Usage[p]
	}
	l.System, err = core.LearnFromData(l.LearnRun.Windows, usage, l.options())
	if err != nil {
		return fmt.Errorf("experiments: train DeepRest: %w", err)
	}
	l.RA, err = baselines.TrainResourceAware(usage, l.WPD, l.P.raConfig())
	if err != nil {
		return fmt.Errorf("experiments: train resrc-aware DL: %w", err)
	}
	l.Simple, err = baselines.TrainSimpleScaling(usage, l.LearnTraffic.TotalSeries())
	if err != nil {
		return fmt.Errorf("experiments: train simple scaling: %w", err)
	}
	l.CompAware, err = baselines.TrainComponentAware(usage, l.LearnRun.Windows)
	if err != nil {
		return fmt.Errorf("experiments: train component-aware scaling: %w", err)
	}
	l.AR, err = baselines.TrainAR(usage, l.WPD, baselines.DefaultARConfig())
	if err != nil {
		return fmt.Errorf("experiments: train seasonal AR: %w", err)
	}
	return nil
}

// GroundTruth replays the learning phase on a fresh cluster (identical
// telemetry, since everything is seeded) and then serves the query traffic,
// returning the query period's run. attacks, if any, are injected with
// window indices relative to the start of the query period.
func (l *Lab) GroundTruth(query *workload.Traffic, attacks ...sim.Attack) (*sim.Run, error) {
	cluster, _, warm, err := sim.Simulate(l.Spec, l.learnProgram(), l.clusterSeed, nil)
	if err != nil {
		return nil, err
	}
	offset := warm.NumWindows()
	for _, a := range attacks {
		cluster.Inject(shiftAttack(a, offset))
	}
	return cluster.Run(query)
}

// shiftAttack rebases an attack's window interval from query-relative to
// cluster-absolute indices.
func shiftAttack(a sim.Attack, offset int) sim.Attack {
	switch at := a.(type) {
	case sim.Ransomware:
		at.FromWindow += offset
		at.ToWindow += offset
		return at
	case sim.Cryptojack:
		at.FromWindow += offset
		at.ToWindow += offset
		return at
	case sim.MemoryLeak:
		at.FromWindow += offset
		return at
	default:
		return a
	}
}

// Evaluation bundles every method's estimate for one query together with
// the ground truth.
type Evaluation struct {
	// Query is the evaluated traffic.
	Query *workload.Traffic
	// Actual is the ground-truth utilization per pair.
	Actual map[app.Pair][]float64
	// Series holds, per method, the estimated series per pair.
	Series map[string]map[app.Pair][]float64
	// Estimates holds DeepRest's full interval estimates.
	Estimates map[app.Pair]estimator.Estimate
	// Synthetic is the synthesizer's trace output for the query.
	Synthetic [][]trace.Batch
	// Truth is the ground-truth run (for synthesis accuracy et al.).
	Truth *sim.Run
}

// Evaluate runs a Mode-1 (hypothetical traffic) query through all four
// methods and collects the ground truth.
func (l *Lab) Evaluate(query *workload.Traffic) (*Evaluation, error) {
	truth, err := l.GroundTruth(query)
	if err != nil {
		return nil, fmt.Errorf("experiments: ground truth: %w", err)
	}
	ev := &Evaluation{
		Query:     query,
		Actual:    make(map[app.Pair][]float64, len(l.Pairs)),
		Series:    make(map[string]map[app.Pair][]float64, len(Methods)),
		Truth:     truth,
		Estimates: make(map[app.Pair]estimator.Estimate),
	}
	for _, m := range Methods {
		ev.Series[m] = make(map[app.Pair][]float64, len(l.Pairs))
	}
	for _, p := range l.Pairs {
		ev.Actual[p] = truth.Usage[p]
	}

	// DeepRest (Mode 1 uses the trace synthesizer).
	ev.Synthetic, err = l.System.Synthesizer().Synthesize(query, l.P.Seed+11)
	if err != nil {
		return nil, err
	}
	ev.Estimates, err = l.System.ExpectedUtilization(ev.Synthetic)
	if err != nil {
		return nil, err
	}
	horizon := query.NumWindows()
	totals := query.TotalSeries()
	for _, p := range l.Pairs {
		ev.Series[MethodDeepRest][p] = ev.Estimates[p].Exp
		ra, err := l.RA.Forecast(p, horizon)
		if err != nil {
			return nil, err
		}
		ev.Series[MethodResourceAware][p] = ra
		ss, err := l.Simple.Estimate(p, totals)
		if err != nil {
			return nil, err
		}
		ev.Series[MethodSimpleScaling][p] = ss
		ca, err := l.CompAware.Estimate(p, ev.Synthetic)
		if err != nil {
			return nil, err
		}
		ev.Series[MethodComponentAware][p] = ca
		ar, err := l.AR.Forecast(p, horizon)
		if err != nil {
			return nil, err
		}
		ev.Series[MethodSeasonalAR][p] = ar
	}
	return ev, nil
}

// mapeTable prints a component-per-row table of per-method MAPEs.
func mapeTable(w io.Writer, title string, rows []app.Pair, evs []*Evaluation) map[string]map[app.Pair]float64 {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "  %-30s", "pair")
	for _, m := range Methods {
		fmt.Fprintf(w, " %16s", m)
	}
	fmt.Fprintln(w)
	worst := make(map[string]map[app.Pair]float64, len(Methods))
	for _, m := range Methods {
		worst[m] = make(map[app.Pair]float64, len(rows))
	}
	for _, p := range rows {
		fmt.Fprintf(w, "  %-30s", p)
		for _, m := range Methods {
			// The paper reports the worst case over repetitions.
			mx := 0.0
			for _, ev := range evs {
				if v := eval.MAPE(ev.Series[m][p], ev.Actual[p]); v > mx {
					mx = v
				}
			}
			worst[m][p] = mx
			fmt.Fprintf(w, " %15.1f%%", mx)
		}
		fmt.Fprintln(w)
	}
	return worst
}

// winsFor counts on how many rows the method has the lowest error.
func winsFor(method string, worst map[string]map[app.Pair]float64, rows []app.Pair) int {
	wins := 0
	for _, p := range rows {
		best, bestV := "", math.Inf(1)
		for m, byPair := range worst {
			if byPair[p] < bestV {
				best, bestV = m, byPair[p]
			}
		}
		if best == method {
			wins++
		}
	}
	return wins
}

// cpuPairs maps component names to their CPU pairs.
func cpuPairs(components ...string) []app.Pair {
	out := make([]app.Pair, len(components))
	for i, c := range components {
		out[i] = app.Pair{Component: c, Resource: app.CPU}
	}
	return out
}

// SynthAccuracy computes Table-1-style synthesis accuracy for an
// evaluation: synthesized traces vs the ground-truth traces of the query.
func (l *Lab) SynthAccuracy(ev *Evaluation) float64 {
	space := l.System.Model().Space
	return synth.Accuracy(space, ev.Synthetic, ev.Truth.Windows)
}
