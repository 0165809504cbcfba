package core

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/app"
	"repro/internal/estimator"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/testutil"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/workload"
)

func testOptions() Options {
	opts := DefaultOptions()
	opts.Estimator.Hidden = 6
	opts.Estimator.Epochs = 10
	opts.Estimator.AttentionEpochs = 2
	opts.Estimator.ChunkLen = 24
	return opts
}

func TestLearnFromTelemetryServer(t *testing.T) {
	_, _, run := testutil.ToyTelemetry(t, 2, 30, 1)
	ts := telemetry.NewServer(run.WindowSeconds)
	ts.RecordRun(run)
	opts := testOptions()
	opts.Pairs = []app.Pair{
		{Component: "Service", Resource: app.CPU},
		{Component: "DB", Resource: app.WriteIOps},
	}
	sys, err := Learn(ts, 0, ts.NumWindows(), opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sys.Pairs()); got != 2 {
		t.Fatalf("Pairs = %d, want 2", got)
	}
	if sys.Model() == nil || sys.Synthesizer() == nil {
		t.Fatal("accessors must be non-nil")
	}
}

// TestLearnFromDataHonoursPairs: Options.Pairs restricts an in-memory learn
// as it does a learn over a store — the model is the one trained on the
// restricted series alone, bit for bit — and a pair without a series fails.
func TestLearnFromDataHonoursPairs(t *testing.T) {
	_, _, run := testutil.ToyTelemetry(t, 1, 30, 3)
	pairs := []app.Pair{{Component: "Service", Resource: app.CPU}, {Component: "DB", Resource: app.WriteIOps}}
	opts := testOptions()
	opts.Estimator.Epochs = 2
	saved := func(sys *System) []byte {
		var buf bytes.Buffer
		if err := sys.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	focused, err := LearnFromData(run.Windows, testutil.FocusPairs(run.Usage, pairs...), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Pairs = pairs
	restricted, err := LearnFromData(run.Windows, run.Usage, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(restricted.Pairs()); got != len(pairs) {
		t.Fatalf("Pairs = %d, want %d", got, len(pairs))
	}
	if !bytes.Equal(saved(restricted), saved(focused)) {
		t.Error("a learn restricted by Options.Pairs differs from one over the restricted series")
	}
	opts.Pairs = []app.Pair{{Component: "Nowhere", Resource: app.CPU}}
	if _, err := LearnFromData(run.Windows, run.Usage, opts); err == nil || !strings.Contains(err.Error(), "Nowhere") {
		t.Errorf("unrecorded pair: err = %v, want one naming it", err)
	}
}

func TestLearnBadRange(t *testing.T) {
	ts := telemetry.NewServer(60)
	if _, err := Learn(ts, 0, 5, DefaultOptions(), nil); err == nil {
		t.Fatal("out-of-range learn must fail")
	}
}

func TestEstimateTrafficMode1(t *testing.T) {
	cluster, _, run := testutil.ToyTelemetry(t, 3, 40, 2)
	opts := testOptions()
	p := app.Pair{Component: "DB", Resource: app.CPU}
	sys, err := LearnFromData(run.Windows, testutil.FocusPairs(run.Usage, p), opts)
	if err != nil {
		t.Fatal(err)
	}
	query := testutil.ToyProgram(1, 60, 55).Generate()
	truth, err := cluster.Run(query)
	if err != nil {
		t.Fatal(err)
	}
	est, err := sys.EstimateTraffic(query)
	if err != nil {
		t.Fatal(err)
	}
	mape := eval.MAPE(est[p].Exp, truth.Usage[p])
	t.Logf("Mode-1 MAPE: %.2f%%", mape)
	if mape > 25 {
		t.Errorf("Mode-1 estimation MAPE %.2f%% too high", mape)
	}
}

func TestSanityCheckMode2(t *testing.T) {
	cluster, _, run := testutil.ToyTelemetry(t, 3, 40, 3)
	opts := testOptions()
	cpu := app.Pair{Component: "DB", Resource: app.CPU}
	mem := app.Pair{Component: "DB", Resource: app.Memory}
	sys, err := LearnFromData(run.Windows, testutil.FocusPairs(run.Usage, cpu, mem), opts)
	if err != nil {
		t.Fatal(err)
	}
	check := testutil.ToyProgram(1, 40, 77).Generate()
	from := cluster.Window() + 20
	cluster.Inject(sim.Cryptojack{Component: "DB", FromWindow: from, ToWindow: from + 12, ExtraCPU: 60})
	truth, err := cluster.Run(check)
	if err != nil {
		t.Fatal(err)
	}
	actual := map[app.Pair][]float64{cpu: truth.Usage[cpu], mem: truth.Usage[mem]}
	events, err := sys.SanityCheck(truth.Windows, actual, anomaly.NewDetector())
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("cryptojack not detected")
	}
	ev := events[0]
	if ev.Component != "DB" {
		t.Errorf("event component = %s", ev.Component)
	}
	if ev.From > 20 || ev.To < 28 {
		t.Errorf("event [%d, %d) misses attack [20, 32)", ev.From, ev.To)
	}
}

// TestSanityCheckCleanNoAlarms runs the Mode-2 check on benign traffic.
func TestSanityCheckCleanNoAlarms(t *testing.T) {
	cluster, _, run := testutil.ToyTelemetry(t, 3, 40, 6)
	opts := testOptions()
	cpu := app.Pair{Component: "Service", Resource: app.CPU}
	sys, err := LearnFromData(run.Windows, testutil.FocusPairs(run.Usage, cpu), opts)
	if err != nil {
		t.Fatal(err)
	}
	check := testutil.ToyProgram(1, 40, 88).Generate()
	truth, err := cluster.Run(check)
	if err != nil {
		t.Fatal(err)
	}
	events, err := sys.SanityCheck(truth.Windows, map[app.Pair][]float64{cpu: truth.Usage[cpu]}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Errorf("false alarms on benign traffic: %+v", events)
	}
}

func TestAnonymizedLearning(t *testing.T) {
	cluster, _, run := testutil.ToyTelemetry(t, 2, 30, 4)
	opts := testOptions()
	opts.Anonymize = true
	opts.HashSalt = "secret"
	p := app.Pair{Component: "DB", Resource: app.CPU}
	sys, err := LearnFromData(run.Windows, testutil.FocusPairs(run.Usage, p), opts)
	if err != nil {
		t.Fatal(err)
	}
	// No plaintext component names may appear in the feature space.
	for _, path := range sys.Model().Space.Paths() {
		if strings.Contains(path, "Gateway") || strings.Contains(path, "DB") {
			t.Fatalf("plaintext name leaked into feature space: %q", path)
		}
	}
	// Mode-1 queries still work: API names are hashed on the way in.
	query := testutil.ToyProgram(1, 45, 66).Generate()
	truth, err := cluster.Run(query)
	if err != nil {
		t.Fatal(err)
	}
	est, err := sys.EstimateTraffic(query)
	if err != nil {
		t.Fatal(err)
	}
	mape := eval.MAPE(est[p].Exp, truth.Usage[p])
	t.Logf("anonymized Mode-1 MAPE: %.2f%%", mape)
	if mape > 25 {
		t.Errorf("anonymized estimation degraded: %.2f%%", mape)
	}
}

func TestSystemSaveLoad(t *testing.T) {
	_, _, run := testutil.ToyTelemetry(t, 2, 30, 5)
	opts := testOptions()
	p := app.Pair{Component: "Service", Resource: app.CPU}
	sys, err := LearnFromData(run.Windows, testutil.FocusPairs(run.Usage, p), opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := estimator.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := sys.ExpectedUtilization(run.Windows)
	b, _ := Restore(m, nil, opts).ExpectedUtilization(run.Windows)
	for i := range a[p].Exp {
		if a[p].Exp[i] != b[p].Exp[i] {
			t.Fatal("loaded model diverges")
		}
	}
}

func TestDefaultsFilledIn(t *testing.T) {
	_, _, run := testutil.ToyTelemetry(t, 2, 20, 7)
	p := app.Pair{Component: "Service", Resource: app.CPU}
	// Zero-value estimator config must be replaced by defaults.
	var opts Options
	opts.Pairs = []app.Pair{p}
	opts.Estimator.Epochs = 0
	sys, err := LearnFromData(run.Windows, testutil.FocusPairs(run.Usage, p), opts)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Model().Cfg.Hidden == 0 {
		t.Error("default config not applied")
	}
}

// TestLearnsThirdApplication is the generality check behind the paper's
// "serve any hosted application" claim (§3): the same pipeline, untouched,
// learns the media-microservices application.
func TestLearnsThirdApplication(t *testing.T) {
	spec, mix, err := topo.Resolve("media")
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := sim.NewCluster(spec, 61)
	if err != nil {
		t.Fatal(err)
	}
	prog := workload.Uniform(2, workload.DaySpec{
		Shape:   workload.TwoPeak{},
		Mix:     mix,
		PeakRPS: 30,
	})
	prog.WindowsPerDay = 48
	prog.WindowSeconds = 60
	traffic := prog.Generate()
	run, err := cluster.Run(traffic)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions()
	review := app.Pair{Component: "ReviewMongoDB", Resource: app.WriteIOps}
	stream := app.Pair{Component: "VideoStreamingService", Resource: app.CPU}
	opts.Pairs = []app.Pair{review, stream}
	sys, err := LearnFromData(run.Windows, map[app.Pair][]float64{
		review: run.Usage[review],
		stream: run.Usage[stream],
	}, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Query an unseen 2x day and check both estimates track reality.
	qp := prog
	qp.Days = prog.Days[:1]
	qp.Days[0].PeakRPS = 60
	qp.Seed = 62
	query := qp.Generate()
	truth, err := cluster.Run(query)
	if err != nil {
		t.Fatal(err)
	}
	est, err := sys.EstimateTraffic(query)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range opts.Pairs {
		mape := eval.MAPE(est[p].Exp, truth.Usage[p])
		t.Logf("%s: MAPE=%.2f%%", p, mape)
		if mape > 30 {
			t.Errorf("%s: MAPE %.2f%% too high on the third application", p, mape)
		}
	}
}

// TestAnonymizedLearnRestrictsAsPlain: the spans of an anonymized learn carry
// hashed names while its pairs keep their real ones, so each expert finds the
// paths that visit its component by the component's hash — and reads exactly
// the paths the plain learn's expert reads, not none. A component whose name
// holds a ":" (the hash holds none) restricts alike.
func TestAnonymizedLearnRestrictsAsPlain(t *testing.T) {
	_, _, run := testutil.ToyTelemetry(t, 1, 30, 71)
	for _, tc := range []struct {
		name string
		db   string // the name the DB component goes by
	}{{"toy", "DB"}, {"component with a colon", "db:5432"}} {
		t.Run(tc.name, func(t *testing.T) {
			windows, usage := renameComponent(run.Windows, run.Usage, "DB", tc.db)
			plain, anon := testOptions(), testOptions()
			plain.Estimator.Epochs, plain.Estimator.AttentionEpochs = 1, 0
			anon.Estimator = plain.Estimator
			anon.Anonymize, anon.HashSalt = true, "salt"
			a, err := LearnFromData(windows, usage, plain)
			if err != nil {
				t.Fatal(err)
			}
			b, err := LearnFromData(windows, usage, anon)
			if err != nil {
				t.Fatal(err)
			}
			dim, narrowed := a.Model().Space.Dim(), 0
			for _, p := range a.Pairs() {
				pe, ae := a.Model().Experts[p], b.Model().Experts[p]
				if !slices.Equal(pe.Inputs, ae.Inputs) {
					t.Fatalf("%s reads paths %v plain, %v anonymized", p, pe.Inputs, ae.Inputs)
				}
				if ae.Component == p.Component {
					t.Fatalf("%s: the anonymized expert spells its component in plain text", p)
				}
				if len(pe.Inputs) == 0 {
					t.Fatalf("%s reads no path, though every request visits it", p)
				}
				if len(pe.Inputs) < dim {
					narrowed++
				}
			}
			if narrowed == 0 {
				t.Fatal("no expert reads a strict subset of the paths: the fixture tests nothing")
			}
		})
	}
}

// renameComponent returns copies of windows and usage in which component
// from is named to.
func renameComponent(windows [][]trace.Batch, usage map[app.Pair][]float64, from, to string) ([][]trace.Batch, map[app.Pair][]float64) {
	outW := make([][]trace.Batch, len(windows))
	for i, batches := range windows {
		outW[i] = make([]trace.Batch, len(batches))
		for j, b := range batches {
			root := b.Trace.Root.Clone()
			root.Walk(func(s *trace.Span, _ []string) {
				if s.Component == from {
					s.Component = to
				}
			})
			outW[i][j] = trace.Batch{Trace: trace.Trace{API: b.Trace.API, Root: root}, Count: b.Count}
		}
	}
	outU := make(map[app.Pair][]float64, len(usage))
	for p, series := range usage {
		if p.Component == from {
			p.Component = to
		}
		outU[p] = series
	}
	return outW, outU
}

// TestAnonymizationIsLossless verifies the paper's privacy claim sharply:
// hashing component/operation/API names is a pure renaming, so a model
// trained on anonymized telemetry must predict *identically* to one trained
// on plaintext telemetry (feature indices depend only on trace structure
// and order, which hashing preserves).
func TestAnonymizationIsLossless(t *testing.T) {
	_, _, run := testutil.ToyTelemetry(t, 2, 30, 71)
	p := app.Pair{Component: "DB", Resource: app.CPU}
	usage := testutil.FocusPairs(run.Usage, p)

	plain := testOptions()
	anon := testOptions()
	anon.Anonymize = true
	anon.HashSalt = "salt"

	sysPlain, err := LearnFromData(run.Windows, usage, plain)
	if err != nil {
		t.Fatal(err)
	}
	sysAnon, err := LearnFromData(run.Windows, usage, anon)
	if err != nil {
		t.Fatal(err)
	}
	query := testutil.ToyProgram(1, 45, 72).Generate()
	ea, err := sysPlain.EstimateTraffic(query)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := sysAnon.EstimateTraffic(query)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ea[p].Exp {
		if ea[p].Exp[i] != eb[p].Exp[i] {
			t.Fatalf("window %d: plaintext %.12f vs anonymized %.12f — hashing must be lossless",
				i, ea[p].Exp[i], eb[p].Exp[i])
		}
	}
}

// TestEstimateTrafficBatchMatchesSingle pins the batch entry point's
// bit-identity contract: one engine pass over several traffics returns
// exactly what per-traffic EstimateTraffic calls return, and both equal the
// eval tape (Model.PredictVectors), which stays the oracle.
func TestEstimateTrafficBatchMatchesSingle(t *testing.T) {
	_, _, run := testutil.ToyTelemetry(t, 2, 30, 5)
	p := app.Pair{Component: "DB", Resource: app.CPU}
	sys, err := LearnFromData(run.Windows, testutil.FocusPairs(run.Usage, p), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sys.Engine() == nil {
		t.Fatalf("no compiled inference engine after LearnFromData: %v", sys.EngineErr())
	}
	queries := []*workload.Traffic{
		testutil.ToyProgram(1, 40, 6).Generate(),
		testutil.ToyProgram(1, 55, 7).Generate(),
		testutil.ToyProgram(1, 25, 8).Generate(),
	}
	batch, err := sys.EstimateTrafficBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(queries) {
		t.Fatalf("%d results for %d queries", len(batch), len(queries))
	}
	same := func(what string, q int, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("query %d %s: %d windows, want %d", q, what, len(got), len(want))
		}
		for w := range want {
			if math.Float64bits(got[w]) != math.Float64bits(want[w]) {
				t.Fatalf("query %d window %d %s: %.17g != %.17g", q, w, what, got[w], want[w])
			}
		}
	}
	for i, q := range queries {
		single, err := sys.EstimateTraffic(q)
		if err != nil {
			t.Fatal(err)
		}
		series, err := sys.SynthesizeFeatures(q)
		if err != nil {
			t.Fatal(err)
		}
		tape, err := sys.Model().PredictVectors(series)
		if err != nil {
			t.Fatal(err)
		}
		same("batch vs single exp", i, batch[i][p].Exp, single[p].Exp)
		same("batch vs single low", i, batch[i][p].Low, single[p].Low)
		same("batch vs single up", i, batch[i][p].Up, single[p].Up)
		same("batch vs tape exp", i, batch[i][p].Exp, tape[p].Exp)
		same("batch vs tape low", i, batch[i][p].Low, tape[p].Low)
		same("batch vs tape up", i, batch[i][p].Up, tape[p].Up)
	}

	if out, err := sys.EstimateTrafficBatch(nil); err != nil || len(out) != 0 {
		t.Fatalf("empty batch: got %v, %v", out, err)
	}
}

// TestLearnStagesAreSpansAndOneHistogram: a learn records its four stages as
// children of core.learn — in the order they ran, inside the parent's
// interval — and observes each once in deeprest_train_phase_seconds.
func TestLearnStagesAreSpansAndOneHistogram(t *testing.T) {
	_, _, run := testutil.ToyTelemetry(t, 1, 30, 7)
	opts := testOptions()
	opts.Estimator.Epochs = 2
	opts.Tracer = obs.NewSpanTracer(64, 1)
	opts.Metrics = obs.NewRegistry()
	pairs := []app.Pair{{Component: "Service", Resource: app.CPU}, {Component: "DB", Resource: app.CPU}}
	if _, err := LearnFromData(run.Windows, testutil.FocusPairs(run.Usage, pairs...), opts); err != nil {
		t.Fatal(err)
	}

	spans := opts.Tracer.Snapshot()
	var learn obs.Span
	for _, s := range spans {
		if s.Name == "core.learn" {
			learn = s
		}
	}
	if learn.ID == 0 {
		t.Fatalf("no core.learn span in %+v", spans)
	}
	var got []string
	for _, s := range spans { // completion order
		if s.Parent != learn.ID {
			continue
		}
		got = append(got, s.Name)
		if s.Start.Before(learn.Start) || s.Start.Add(s.Duration).After(learn.Start.Add(learn.Duration)) {
			t.Errorf("%s [%v +%v] is not inside core.learn [%v +%v]", s.Name, s.Start, s.Duration, learn.Start, learn.Duration)
		}
	}
	want := []string{"estimator.trunks", "estimator.peer_states", "estimator.attention", "infer.compile"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("children of core.learn = %v, want %v", got, want)
	}

	var scrape bytes.Buffer
	if err := opts.Metrics.WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	if err := obs.Lint(bytes.NewReader(scrape.Bytes())); err != nil {
		t.Fatalf("exposition fails lint: %v", err)
	}
	for _, phase := range []string{"trunks", "peer_states", "attention", "compile"} {
		if line := `deeprest_train_phase_seconds_count{phase="` + phase + `"} 1`; !strings.Contains(scrape.String(), line) {
			t.Errorf("scrape is missing %q", line)
		}
	}
}
