// Command deeprest is the end-to-end CLI over a simulated deployment: it
// provisions one of the bundled applications, serves learning traffic,
// trains DeepRest, and then answers queries — mirroring how the system
// would be driven against a real cluster's telemetry.
//
// Subcommands:
//
//	learn     train a model from simulated or imported (-telemetry) telemetry
//	estimate  load a model and estimate resources for hypothetical traffic (Mode 1),
//	          either generated or read from a `deeprest traffic` CSV (-traffic)
//	sanity    run an application sanity check over an attacked period (Mode 2)
//	synth     report trace-synthesizer statistics for hypothetical traffic
//	export    dump simulated telemetry as a JSON interchange stream
//	topology  emit the execution topology graph as Graphviz DOT (Figure 5)
//	traffic   generate a traffic program — the Locust stand-in (paper §5.1) — as
//	          a per-window CSV or a sparkline summary
//	spec      validate, export or generate topology DSL documents
//
// All state flows through the model file, so `deeprest learn` followed by
// `deeprest estimate` exercises serialization the way a real deployment
// would.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/anomaly"
	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "learn":
		err = cmdLearn(os.Args[2:])
	case "estimate":
		err = cmdEstimate(os.Args[2:])
	case "sanity":
		err = cmdSanity(os.Args[2:])
	case "synth":
		err = cmdSynth(os.Args[2:])
	case "export":
		err = cmdExport(os.Args[2:])
	case "topology":
		err = cmdTopology(os.Args[2:])
	case "traffic":
		err = cmdTraffic(os.Args[2:])
	case "spec":
		err = cmdSpec(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "deeprest: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "deeprest: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: deeprest <learn|estimate|sanity|synth|export|topology|traffic|spec> [flags]

APP is social|hotel|media, @FILE (a topology DSL document), or
gen:seed=N,components=N[,apis=N,depth=N,fanout=N] (a generated topology).

  learn     -app APP -days N -model FILE [-seed N] [-quick]
  estimate  -app APP -model FILE -scale F [-shape 2peak|flat|1peak|high] [-traffic CSV]
  sanity    -app APP -attack ransomware|cryptojack|memleak [-quick]
  synth     -app APP [-quick]
  export    -app APP -o FILE [-quick]   (dump simulated telemetry as JSON)
  topology  -app APP [-o FILE] [-quick] (execution topology graph as Graphviz DOT)
  traffic   -app APP [-days N] [-shape 2peak|flat|1peak|high] [-peak RPS] [-scale F]
            [-wpd N] [-window S] [-format csv|summary] [-seed N]
  spec      validate FILE... | export -app APP [-o FILE] | generate -seed N -components N [-o FILE]
            (work with topology DSL documents; see internal/topo/apps/)`)
}

// labFlags bundles the options shared by subcommands.
type labFlags struct {
	app       string
	seed      int64
	quick     bool
	days      int
	model     string
	faultSpec string
}

func addLabFlags(fs *flag.FlagSet) *labFlags {
	lf := &labFlags{}
	fs.StringVar(&lf.app, "app", "social",
		"application: social|hotel|media, @spec.json, or gen:seed=N,components=N")
	fs.Int64Var(&lf.seed, "seed", 1, "random seed")
	fs.BoolVar(&lf.quick, "quick", false, "reduced scale for fast runs")
	fs.IntVar(&lf.days, "days", 0, "learning days (default 7, or 3 with -quick)")
	fs.StringVar(&lf.model, "model", "deeprest.model", "model file path")
	fs.StringVar(&lf.faultSpec, "fault-spec", "",
		"deterministic fault scenario for the simulation, e.g. \"seed=42;crash:comp=DB,from=10,to=15\" (see internal/faults)")
	return lf
}

func (lf *labFlags) spec() (*app.Spec, workload.Mix, error) {
	return topo.Resolve(lf.app)
}

func (lf *labFlags) geometry() (wpd int, windowSeconds float64, days int, peak float64) {
	wpd, windowSeconds, days, peak = workload.Scale(lf.quick)
	if lf.days > 0 {
		days = lf.days
	}
	return wpd, windowSeconds, days, peak
}

func (lf *labFlags) estConfig() estimator.Config {
	cfg := estimator.DefaultConfig()
	cfg.Seed = lf.seed
	if lf.quick {
		cfg.ChunkLen = 24
	}
	return cfg
}

// program is days of one day specification on a window geometry.
func program(days int, day workload.DaySpec, wpd int, windowSeconds float64, seed int64) workload.Program {
	p := workload.Uniform(days, day)
	p.WindowsPerDay = wpd
	p.WindowSeconds = windowSeconds
	p.Seed = seed
	return p
}

// shapeFlag is a -shape flag: one name table (workload.ParseShape) for every
// subcommand that takes one, and a bad name fails flag parsing (exit 2).
type shapeFlag struct{ workload.Shape }

func (f *shapeFlag) String() string { return "" }

func (f *shapeFlag) Set(name string) (err error) {
	f.Shape, err = workload.ParseShape(name)
	return err
}

func addShapeFlag(fs *flag.FlagSet) *shapeFlag {
	f := &shapeFlag{workload.TwoPeak{}}
	fs.Var(f, "shape", "traffic shape: 2peak (default), flat, 1peak or high")
	return f
}

// simulateLearning provisions a cluster, serves the learning traffic, and
// returns the cluster plus a telemetry server holding the learning period.
func simulateLearning(lf *labFlags) (*sim.Cluster, *telemetry.Server, *workload.Traffic, error) {
	spec, mix, err := lf.spec()
	if err != nil {
		return nil, nil, nil, err
	}
	var sched *faults.Schedule
	if lf.faultSpec != "" {
		if sched, err = faults.Compile(lf.faultSpec); err != nil {
			return nil, nil, nil, fmt.Errorf("-fault-spec: %w", err)
		}
	}
	wpd, ws, days, peak := lf.geometry()
	learn := workload.DaySpec{Shape: workload.TwoPeak{}, Mix: mix, PeakRPS: peak}
	cluster, traffic, run, err := sim.Simulate(spec, program(days, learn, wpd, ws, lf.seed+300), lf.seed+100, sched)
	if err != nil {
		return nil, nil, nil, err
	}
	ts := telemetry.NewServer(ws)
	ts.RecordRun(run)
	return cluster, ts, traffic, nil
}

func cmdLearn(args []string) error {
	fs := flag.NewFlagSet("learn", flag.ExitOnError)
	lf := addLabFlags(fs)
	telemetryFile := fs.String("telemetry", "", "learn from a JSON telemetry dump instead of simulating")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var ts *telemetry.Server
	if *telemetryFile != "" {
		f, err := os.Open(*telemetryFile)
		if err != nil {
			return err
		}
		defer f.Close()
		ts, err = telemetry.ImportJSON(f)
		if err != nil {
			return err
		}
		fmt.Printf("learning phase: %d windows imported from %s\n", ts.NumWindows(), *telemetryFile)
	} else {
		var traffic *workload.Traffic
		var err error
		_, ts, traffic, err = simulateLearning(lf)
		if err != nil {
			return err
		}
		fmt.Printf("learning phase: %d windows, %d total requests\n", ts.NumWindows(), traffic.TotalRequests())
	}
	opts := core.DefaultOptions()
	opts.Estimator = lf.estConfig()
	opts.Estimator.Stage = func(stage string) func() {
		start := time.Now()
		return func() { fmt.Printf("stage %s: %v\n", stage, time.Since(start).Round(time.Millisecond)) }
	}
	sys, err := core.Learn(ts, 0, ts.NumWindows(), opts, nil)
	if err != nil {
		return err
	}
	f, err := os.Create(lf.model)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := sys.Save(f); err != nil {
		return err
	}
	fmt.Printf("trained %d experts; model saved to %s\n", len(sys.Pairs()), lf.model)
	sys.Model().Summary(os.Stdout)
	return nil
}

func cmdTopology(args []string) error {
	fs := flag.NewFlagSet("topology", flag.ExitOnError)
	lf := addLabFlags(fs)
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	_, ts, _, err := simulateLearning(lf)
	if err != nil {
		return err
	}
	windows, err := ts.Traces(0, ts.NumWindows())
	if err != nil {
		return err
	}
	g := trace.NewTopology()
	for _, w := range windows {
		for _, b := range w {
			g.AddBatch(b)
		}
	}
	dot := g.DOT(lf.app)
	if *out == "" {
		fmt.Print(dot)
		return nil
	}
	if err := os.WriteFile(*out, []byte(dot), 0o644); err != nil {
		return err
	}
	fmt.Printf("execution topology (%d nodes, %d edges) written to %s\n", g.NumNodes(), g.NumEdges(), *out)
	return nil
}

func cmdEstimate(args []string) error {
	fs := flag.NewFlagSet("estimate", flag.ExitOnError)
	lf := addLabFlags(fs)
	scale := fs.Float64("scale", 2, "user-scale multiplier for the query day")
	shape := addShapeFlag(fs)
	trafficFile := fs.String("traffic", "", "query traffic from a `deeprest traffic -format csv` table instead of generating it")
	if err := fs.Parse(args); err != nil {
		return err
	}
	_, mix, err := lf.spec()
	if err != nil {
		return err
	}
	f, err := os.Open(lf.model)
	if err != nil {
		return fmt.Errorf("open model (run `deeprest learn` first): %w", err)
	}
	model, err := estimator.Load(f)
	f.Close()
	if err != nil {
		return err
	}

	// The synthesizer is rebuilt from a replayed learning phase (it is
	// not serialized; see core.System.Save).
	_, ts, _, err := simulateLearning(lf)
	if err != nil {
		return err
	}
	windows, err := ts.Traces(0, ts.NumWindows())
	if err != nil {
		return err
	}
	opts := core.DefaultOptions()
	opts.SynthSeed = lf.seed + 11
	sys := core.Restore(model, windows, opts)

	wpd, ws, _, peak := lf.geometry()
	var query *workload.Traffic
	if *trafficFile != "" {
		tf, err := os.Open(*trafficFile)
		if err != nil {
			return err
		}
		query, err = workload.ReadCSV(tf, ws, wpd)
		tf.Close()
		if err != nil {
			return err
		}
	} else {
		day := workload.DaySpec{Shape: shape.Shape, Mix: mix, PeakRPS: peak * *scale}
		query = program(1, day, wpd, ws, lf.seed+900).Generate()
	}

	est, err := sys.EstimateTraffic(query)
	if err != nil {
		return err
	}
	label := fmt.Sprintf("%.1fx users, %s shape", *scale, shape.Name())
	if *trafficFile != "" {
		label = "traffic from " + *trafficFile
	}
	fmt.Printf("resource allocation for %s (%d windows):\n", label, query.NumWindows())
	for _, p := range model.Pairs {
		e := est[p]
		fmt.Printf("  %-36s peak=%9.1f %-7s mean=%9.1f  %s\n",
			p, max(e.Up), p.Resource.Unit(), mean(e.Exp), eval.Sparkline(e.Exp, 48))
	}
	return nil
}

func mean(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

func max(s []float64) float64 {
	m := 0.0
	for _, v := range s {
		if v > m {
			m = v
		}
	}
	return m
}

func cmdSanity(args []string) error {
	fs := flag.NewFlagSet("sanity", flag.ExitOnError)
	lf := addLabFlags(fs)
	attackKind := fs.String("attack", "ransomware", "attack to inject: ransomware, cryptojack, or memleak")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cluster, ts, _, err := simulateLearning(lf)
	if err != nil {
		return err
	}
	opts := core.DefaultOptions()
	opts.Estimator = lf.estConfig()
	sys, err := core.Learn(ts, 0, ts.NumWindows(), opts, nil)
	if err != nil {
		return err
	}

	// Serve two more days; the attack fires midway through day 2.
	spec := cluster.Spec()
	_, mixFor, err := lf.spec()
	if err != nil {
		return err
	}
	wpd, ws, _, peak := lf.geometry()
	day := workload.DaySpec{Shape: workload.TwoPeak{}, Mix: mixFor, PeakRPS: peak}
	check := program(2, day, wpd, ws, lf.seed+950).Generate()

	victim := attackVictim(lf.app, spec)
	if victim == "" {
		return fmt.Errorf("app %s has no stateful component to attack", spec.Name)
	}
	start := cluster.Window() + wpd + wpd/2
	switch *attackKind {
	case "ransomware":
		cluster.Inject(sim.Ransomware{Component: victim, FromWindow: start, ToWindow: start + wpd/8, ExtraCPU: 90, ExtraWriteOps: 400, ExtraWriteKiB: 800})
	case "cryptojack":
		cluster.Inject(sim.Cryptojack{Component: victim, FromWindow: start, ToWindow: 1 << 30, ExtraCPU: 70})
	case "memleak":
		cluster.Inject(sim.MemoryLeak{Component: victim, FromWindow: start, MiBPerWindow: 4})
	default:
		return fmt.Errorf("unknown attack %q", *attackKind)
	}
	run, err := cluster.Run(check)
	if err != nil {
		return err
	}
	actual := make(map[app.Pair][]float64)
	for _, p := range spec.ResourcePairs() {
		if p.Component == victim || p.Resource == app.CPU {
			actual[p] = run.Usage[p]
		}
	}
	events, err := sys.SanityCheck(run.Windows, actual, anomaly.NewDetector())
	if err != nil {
		return err
	}
	fmt.Printf("sanity check over %d windows with injected %s on %s (from window %d):\n",
		check.NumWindows(), *attackKind, victim, wpd+wpd/2)
	if len(events) == 0 {
		fmt.Println("  no anomalies detected")
	}
	for _, e := range events {
		fmt.Println(e.Format(nil))
	}
	return nil
}

// attackVictim picks the component the sanity-check attack targets: the
// storage components the scenario docs name for the bundled apps, or the
// first stateful component of any other topology.
func attackVictim(appArg string, spec *app.Spec) string {
	switch appArg {
	case "social":
		return "PostStorageMongoDB"
	case "hotel":
		return "ReserveMongoDB"
	}
	for _, c := range spec.Components {
		if c.Stateful {
			return c.Name
		}
	}
	return ""
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	lf := addLabFlags(fs)
	out := fs.String("o", "telemetry.json", "output file for the telemetry dump")
	if err := fs.Parse(args); err != nil {
		return err
	}
	_, ts, traffic, err := simulateLearning(lf)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := ts.ExportJSON(f); err != nil {
		return err
	}
	fmt.Printf("exported %d windows (%d requests) to %s\n", ts.NumWindows(), traffic.TotalRequests(), *out)
	return nil
}

func cmdSynth(args []string) error {
	fs := flag.NewFlagSet("synth", flag.ExitOnError)
	lf := addLabFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	_, ts, _, err := simulateLearning(lf)
	if err != nil {
		return err
	}
	windows, err := ts.Traces(0, ts.NumWindows())
	if err != nil {
		return err
	}
	syn := synth.Learn(windows)
	fmt.Println("trace synthesizer: learned Prob(path | API)")
	for _, api := range syn.APIs() {
		fmt.Printf("  %-20s %d invocation-path shapes:", api, syn.NumShapes(api))
		for i := 0; i < syn.NumShapes(api); i++ {
			fmt.Printf(" %.3f", syn.Prob(api, i))
		}
		fmt.Println()
	}
	return nil
}

// cmdTraffic is the standalone workload generator: per scrape window, the
// request count of every API endpoint of the resolved application's mix.
func cmdTraffic(args []string) error {
	fs := flag.NewFlagSet("traffic", flag.ExitOnError)
	wpdFull, wsFull, _, peakFull := workload.Scale(false)
	appName := fs.String("app", "social",
		"application mix: social|hotel|media, @spec.json, or gen:seed=N,components=N")
	days := fs.Int("days", 1, "number of days to generate")
	shape := addShapeFlag(fs)
	peak := fs.Float64("peak", peakFull, "peak total requests per second")
	scale := fs.Float64("scale", 1, "user-scale multiplier")
	wpd := fs.Int("wpd", wpdFull, "windows per day")
	windowSec := fs.Float64("window", wsFull, "window duration in seconds")
	format := fs.String("format", "summary", "output format: csv or summary")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	_, mix, err := topo.Resolve(*appName)
	if err != nil {
		return err
	}
	day := workload.DaySpec{Shape: shape.Shape, Mix: mix, PeakRPS: *peak * *scale}
	traffic := program(*days, day, *wpd, *windowSec, *seed).Generate()
	switch *format {
	case "csv":
		return traffic.WriteCSV(os.Stdout)
	case "summary":
		fmt.Printf("%d days x %d windows (%gs each), shape=%s, peak=%.0f rps, total=%d requests\n",
			*days, *wpd, *windowSec, shape.Name(), *peak**scale, traffic.TotalRequests())
		for _, api := range traffic.APIs {
			s := traffic.Series(api)
			fmt.Printf("  %-20s %s (%s req/window)\n", api, eval.Sparkline(s, 72), eval.SeriesSummary(s))
		}
		return nil
	}
	return fmt.Errorf("unknown format %q (want csv or summary)", *format)
}
