package pipeline

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/testutil"
	"repro/internal/trace"
)

var cpuPair = app.Pair{Component: "Service", Resource: app.CPU}

// quickOpts keeps training fast enough for race-enabled tests.
// Five epochs are the fewest at which a model covers at least half of its
// own toy windows with its interval, as the drift verdict's tests assume:
// after four (eight Adam steps) the heads of an expert reading few paths
// have not yet spread apart.
func quickOpts() core.Options {
	opts := core.DefaultOptions()
	opts.Estimator.Hidden = 3
	opts.Estimator.Epochs = 5
	opts.Estimator.AttentionEpochs = 0
	opts.Estimator.ChunkLen = 24
	return opts
}

// toyStore records `days` days of toy telemetry into a store.
func toyStore(t *testing.T, days int, seed int64) *telemetry.Server {
	t.Helper()
	_, _, run := testutil.ToyTelemetry(t, days, 30, seed)
	store := telemetry.NewServer(run.WindowSeconds)
	store.RecordRun(run)
	return store
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestTrainOncePublishesAndWarmStarts(t *testing.T) {
	store := toyStore(t, 1, 81)
	p, err := New(quickOpts(), DefaultConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := p.TrainOnce(0, 0, []app.Pair{cpuPair}, "manual")
	if err != nil {
		t.Fatal(err)
	}
	if g1.Version != 1 || g1.Warm || g1.To != store.NumWindows() {
		t.Fatalf("gen1 = %+v", g1)
	}
	if p.Active() != g1 {
		t.Fatal("gen1 not active")
	}
	g2, err := p.TrainOnce(0, 0, nil, "scheduled")
	if err != nil {
		t.Fatal(err)
	}
	if g2.Version != 2 || !g2.Warm {
		t.Fatalf("gen2 = version %d warm %v, want 2/true", g2.Version, g2.Warm)
	}
	// The scheduled retrain inherits the manual pair restriction.
	if g2.Experts() != 1 {
		t.Fatalf("gen2 experts = %d, want 1 (inherited pair restriction)", g2.Experts())
	}
	if st := p.Status(); st.ActiveVersion != 2 || st.Generations != 2 || st.TrainedTo != store.NumWindows() {
		t.Fatalf("status = %+v", st)
	}
}

// TestFailedManualLearnKeepsRestriction: a manual learn that fails after
// taking the training slot leaves the last published restriction in place,
// so the next scheduled retrain trains that one expert, not the refused pair.
func TestFailedManualLearnKeepsRestriction(t *testing.T) {
	store := toyStore(t, 1, 81)
	p, err := New(quickOpts(), DefaultConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.TrainOnce(0, 0, []app.Pair{cpuPair}, "manual"); err != nil {
		t.Fatal(err)
	}
	nowhere := app.Pair{Component: "Nowhere", Resource: app.CPU}
	if _, err := p.TrainOnce(0, 0, []app.Pair{nowhere}, "manual"); err == nil {
		t.Fatal("a learn of an unrecorded pair published")
	}
	g, err := p.TrainOnce(0, 0, nil, "scheduled")
	if err != nil {
		t.Fatalf("scheduled retrain after a failed manual learn: %v", err)
	}
	if g.Experts() != 1 || g.Version != 2 || p.Degraded() {
		t.Fatalf("scheduled retrain: version %d, %d experts, degraded %v; want 2, 1, false", g.Version, g.Experts(), p.Degraded())
	}
}

// TestRetrainOverOtherPathsStartsCold: a retrain whose window names other
// invocation paths — here as many, the same telemetry under hashed names —
// seeds no expert from the serving generation, and says so.
func TestRetrainOverOtherPathsStartsCold(t *testing.T) {
	_, _, run := testutil.ToyTelemetry(t, 1, 30, 84)
	hashed := *run
	h := trace.NewHasher("other")
	hashed.Windows = make([][]trace.Batch, len(run.Windows))
	for w, batches := range run.Windows {
		for _, b := range batches {
			hashed.Windows[w] = append(hashed.Windows[w], trace.Batch{Trace: h.AnonymizeTrace(b.Trace), Count: b.Count})
		}
	}
	store := telemetry.NewServer(run.WindowSeconds)
	store.RecordRun(run)
	store.RecordRun(&hashed)
	p, err := New(quickOpts(), DefaultConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	n := len(run.Windows)
	g1, err := p.TrainOnce(0, n, []app.Pair{cpuPair}, "manual")
	if err != nil {
		t.Fatal(err)
	}
	g2, err := p.TrainOnce(n, 2*n, nil, "scheduled")
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := g1.Model().Space, g2.Model().Space
	if s1.Dim() != s2.Dim() || s1.Path(0) == s2.Path(0) {
		t.Fatalf("want equally many, differently named paths: %d %q vs %d %q", s1.Dim(), s1.Path(0), s2.Dim(), s2.Path(0))
	}
	if g2.Warm {
		t.Error("generation 2 reports warm_started over another path set")
	}
}

func TestTrainOnceConflict(t *testing.T) {
	store := toyStore(t, 1, 82)
	cfg := DefaultConfig()
	enter, release := make(chan struct{}), make(chan struct{})
	var gate sync.Once
	cfg.BeforeTrain = func() {
		gate.Do(func() { // only the first generation blocks
			close(enter)
			<-release
		})
	}
	p, err := New(quickOpts(), cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	firstDone := make(chan error, 1)
	go func() {
		_, err := p.TrainOnce(0, 0, []app.Pair{cpuPair}, "manual")
		firstDone <- err
	}()
	<-enter
	if !p.Status().InFlight {
		t.Error("status does not report training in flight")
	}
	if _, err := p.TrainOnce(0, 0, nil, "manual"); !errors.Is(err, ErrTrainingInFlight) {
		t.Fatalf("concurrent TrainOnce = %v, want ErrTrainingInFlight", err)
	}
	close(release)
	if err := <-firstDone; err != nil {
		t.Fatalf("first TrainOnce failed: %v", err)
	}
	// The slot is free again.
	if _, err := p.TrainOnce(0, 0, nil, "scheduled"); err != nil {
		t.Fatalf("TrainOnce after release = %v", err)
	}
}

func TestRollbackActivatesPriorVersion(t *testing.T) {
	store := toyStore(t, 1, 83)
	p, err := New(quickOpts(), DefaultConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.TrainOnce(0, 0, []app.Pair{cpuPair}, "manual"); err != nil {
		t.Fatal(err)
	}
	g2, err := p.TrainOnce(0, 0, nil, "scheduled")
	if err != nil {
		t.Fatal(err)
	}
	if p.Active().Version != g2.Version {
		t.Fatal("newest generation not active")
	}
	back, err := p.Registry().Activate(1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Active() != back || p.Active().Version != 1 {
		t.Fatalf("active after rollback = v%d, want v1", p.Active().Version)
	}
	// Rolling forward again works too, and unknown versions error.
	if _, err := p.Registry().Activate(2); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Registry().Activate(99); err == nil {
		t.Fatal("activating unknown version did not error")
	}
}

// TestBackgroundLoopRetrains drives the scheduled tick the way the fleet
// scheduler does: every TickScheduled with MinNewWindows 0 publishes one
// warm-started "scheduled" generation.
func TestBackgroundLoopRetrains(t *testing.T) {
	store := toyStore(t, 1, 84)
	cfg := DefaultConfig()
	cfg.MinNewWindows = 0 // every tick retrains, no fresh data needed
	cfg.MaxHistory = 8
	p, err := New(quickOpts(), cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	// Seed the pair restriction so the ticks train a single expert.
	if _, err := p.TrainOnce(0, 0, []app.Pair{cpuPair}, "manual"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		p.TickScheduled(context.Background())
	}
	gens := p.Registry().Generations()
	if len(gens) != 3 {
		t.Fatalf("generations = %d, want 3", len(gens))
	}
	for _, g := range gens[1:] {
		if g.Trigger != "scheduled" {
			t.Fatalf("scheduled-tick generation trigger = %q", g.Trigger)
		}
		if !g.Warm {
			t.Fatal("scheduled-tick generation did not warm-start")
		}
	}
	// A cancelled tick trains nothing.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p.TickScheduled(ctx)
	if got := p.Status().Generations; got != 3 {
		t.Fatalf("generations after a cancelled tick = %d, want 3", got)
	}
}

// TestDriftTriggersEarlyRetrain: the drift tick takes the scoreboard's
// verdict on the windows since the last training run. With none of them
// scored there is no verdict and no retrain; once a "new version" makes the
// same traffic cost 6x CPU, one tick retrains with trigger "drift" through
// the newest window.
func TestDriftTriggersEarlyRetrain(t *testing.T) {
	_, _, run := testutil.ToyTelemetry(t, 1, 30, 85)
	store := telemetry.NewServer(run.WindowSeconds)
	store.RecordRun(run)
	p := newScoredPipeline(t, quickOpts(), DefaultConfig(), store)
	if _, err := p.TrainOnce(0, 0, []app.Pair{cpuPair}, "manual"); err != nil {
		t.Fatal(err)
	}

	p.TickDrift(context.Background())
	if st := p.Status(); st.Generations != 1 || st.LastDrift != nil {
		t.Fatalf("a tick with no fresh windows: %d generations, verdict %+v", st.Generations, st.LastDrift)
	}

	for i := 0; i < 16; i++ {
		w := i % len(run.Windows)
		usage := make(sim.Usage, len(run.Usage))
		for pr, series := range run.Usage {
			usage[pr] = 6 * series[w]
		}
		store.Record(sim.WindowResult{Batches: run.Windows[w], Usage: usage})
	}
	p.TickDrift(context.Background())
	gens := p.Registry().Generations()
	if last := gens[len(gens)-1]; len(gens) != 2 || last.Trigger != "drift" {
		t.Fatalf("generations after the drift tick = %d (last trigger %q), want a second one triggered by drift",
			len(gens), last.Trigger)
	}
	if st := p.Status(); st.TrainedTo != store.NumWindows() {
		t.Fatalf("drift retrain covered up to %d, want %d", st.TrainedTo, store.NumWindows())
	}
}

func TestTrainOnceWithoutTelemetry(t *testing.T) {
	p, err := New(quickOpts(), DefaultConfig(), telemetry.NewServer(60))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.TrainOnce(0, 0, nil, "manual"); err == nil {
		t.Fatal("TrainOnce without telemetry did not error")
	}

	// With telemetry, an unknown pair restriction fails the generation and
	// surfaces in the status, but leaves the pipeline usable.
	store := toyStore(t, 1, 86)
	p2, err := New(quickOpts(), DefaultConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.TrainOnce(0, 0, []app.Pair{{Component: "Nope", Resource: app.CPU}}, "manual"); err == nil {
		t.Fatal("unknown pair did not error")
	}
	if st := p2.Status(); st.LastError == "" || st.InFlight {
		t.Fatalf("status after failed generation = %+v", st)
	}
	if _, err := p2.TrainOnce(0, 0, []app.Pair{cpuPair}, "manual"); err != nil {
		t.Fatalf("pipeline unusable after failed generation: %v", err)
	}
}

// TestTrainInstallsExtractor: the store's Record-time extraction follows the
// active generation — through publish, rollback and a restart's recovery —
// tagged with that generation's version.
func TestTrainInstallsExtractor(t *testing.T) {
	store := toyStore(t, 1, 86)
	cfg := DefaultConfig()
	cfg.CheckpointDir = t.TempDir()
	p, err := New(quickOpts(), cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	if got := store.ExtractorGen(); got != 0 {
		t.Fatalf("extractor generation before training = %d, want 0", got)
	}
	g1, err := p.TrainOnce(0, 0, []app.Pair{cpuPair}, "manual")
	if err != nil {
		t.Fatal(err)
	}
	if got := store.ExtractorGen(); got != g1.Version {
		t.Fatalf("extractor generation after publish = %d, want %d", got, g1.Version)
	}
	g2, err := p.TrainOnce(0, 0, nil, "manual")
	if err != nil {
		t.Fatal(err)
	}
	if got := store.ExtractorGen(); got != g2.Version {
		t.Fatalf("extractor generation after second publish = %d, want %d", got, g2.Version)
	}
	if _, err := p.Activate(g1.Version); err != nil {
		t.Fatal(err)
	}
	if got := store.ExtractorGen(); got != g1.Version {
		t.Fatalf("extractor generation after rollback = %d, want %d", got, g1.Version)
	}
	if _, err := p.Activate(99); err == nil {
		t.Fatal("Activate accepted a version the registry does not hold")
	}

	// A restart: a fresh store and pipeline over the same checkpoints.
	store2 := toyStore(t, 1, 86)
	p2, err := New(quickOpts(), cfg, store2)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := p2.Recover(); err != nil || n != 2 {
		t.Fatalf("Recover = %d, %v, want both generations", n, err)
	}
	if got, want := store2.ExtractorGen(), p2.Active().Version; got != want {
		t.Fatalf("extractor generation after recovery = %d, want the active version %d", got, want)
	}
}
