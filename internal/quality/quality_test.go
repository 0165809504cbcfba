package quality

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// quickOpts keeps training fast enough for race-enabled tests.
func quickOpts() core.Options {
	opts := core.DefaultOptions()
	opts.Estimator.Hidden = 3
	opts.Estimator.Epochs = 4
	opts.Estimator.AttentionEpochs = 0
	opts.Estimator.ChunkLen = 24
	return opts
}

// harness is a trained system plus the telemetry it was trained on.
type harness struct {
	store *telemetry.Server
	run   *sim.Run
	sys   *core.System
}

// newHarness trains a tiny system on the first trainDays of telemetry and
// returns a store holding all days.
func newHarness(t testing.TB, days, trainDays int, seed int64) *harness {
	t.Helper()
	_, _, run := testutil.ToyTelemetry(t, days, 30, seed)
	store := telemetry.NewServer(run.WindowSeconds)
	store.RecordRun(run)
	sys, err := core.Learn(store, 0, trainDays*testutil.ToyDay, quickOpts(), nil)
	if err != nil {
		t.Fatalf("Learn: %v", err)
	}
	return &harness{store: store, run: run, sys: sys}
}

func (h *harness) active(version int) func() (int, *core.System) {
	return func() (int, *core.System) { return version, h.sys }
}

func TestScorerScoresAndReports(t *testing.T) {
	h := newHarness(t, 2, 1, 42)
	s := New(Config{Chunk: 8}, Deps{Source: h.store, Active: h.active(1)})

	scored := s.CatchUp(context.Background())
	wantScored := h.store.NumWindows()
	if scored != wantScored {
		t.Fatalf("scored %d windows, want %d (through the newest)", scored, wantScored)
	}
	if s.CatchUp(context.Background()) != 0 {
		t.Fatal("second CatchUp rescored windows")
	}

	rep := s.Report()
	if rep.Version != 1 || rep.WindowsScored != wantScored || rep.ScoredTo != wantScored {
		t.Fatalf("report header = %+v", rep)
	}
	if rep.Summary == "empty" {
		t.Fatalf("summary = %q after scoring", rep.Summary)
	}
	if rep.Delta != 0.90 || rep.QUp != 0.95 {
		t.Fatalf("delta/qUp = %v/%v", rep.Delta, rep.QUp)
	}
	if len(rep.Horizons) != len(DefaultHorizons) {
		t.Fatalf("horizons = %d, want %d", len(rep.Horizons), len(DefaultHorizons))
	}
	long := rep.Horizons[len(rep.Horizons)-1]
	if len(long.Pairs) == 0 {
		t.Fatal("no per-pair scores")
	}
	for name, ps := range long.Pairs {
		if ps.SMAPE < 0 || ps.MAE < 0 || ps.Coverage < 0 || ps.Coverage > 1 {
			t.Fatalf("pair %s score out of range: %+v", name, ps)
		}
		if ps.Unit == "" {
			t.Fatalf("pair %s missing unit", name)
		}
	}
	// DiskUsage pairs are excluded.
	for name := range long.Pairs {
		if name == "DB/disk" || name == "DB/disk_usage" {
			t.Fatalf("monotone pair %s scored", name)
		}
	}
	// Toy app serves /read and /write; both must carry attributed error.
	if long.APIs["/read"] <= 0 && long.APIs["/write"] <= 0 {
		t.Fatalf("per-API attribution empty: %+v", long.APIs)
	}
	// The model trained on this very telemetry: coverage should be far
	// from collapsed.
	if long.Coverage <= 0.2 {
		t.Fatalf("coverage = %v, interval collapsed", long.Coverage)
	}
}

// TestScorerDeterministicPerSeedAndCadence is the golden determinism test:
// the scoreboard is a pure function of (telemetry seed, model), independent
// of how often CatchUp runs.
func TestScorerDeterministicPerSeedAndCadence(t *testing.T) {
	h := newHarness(t, 1, 1, 7)

	// Run A: everything recorded, one CatchUp.
	a := New(Config{Chunk: 8}, Deps{Source: h.store, Active: h.active(1)})
	a.CatchUp(context.Background())

	// Run B: fresh store fed window-by-window, CatchUp after every record.
	storeB := telemetry.NewServer(h.run.WindowSeconds)
	b := New(Config{Chunk: 8}, Deps{Source: storeB, Active: func() (int, *core.System) { return 1, h.sys }})
	for i, w := range h.run.Windows {
		usage := sim.Usage{}
		for p, vs := range h.run.Usage {
			usage[p] = vs[i]
		}
		storeB.Record(sim.WindowResult{Batches: w, Usage: usage})
		b.CatchUp(context.Background())
	}

	ja, _ := json.Marshal(a.Report())
	jb, _ := json.Marshal(b.Report())
	if string(ja) != string(jb) {
		t.Fatalf("scoreboards diverge across call cadence:\nA: %s\nB: %s", ja, jb)
	}

	// Same seed, fresh everything → bit-identical report.
	h2 := newHarness(t, 1, 1, 7)
	c := New(Config{Chunk: 8}, Deps{Source: h2.store, Active: h2.active(1)})
	c.CatchUp(context.Background())
	jc, _ := json.Marshal(c.Report())
	if string(ja) != string(jc) {
		t.Fatalf("scoreboards diverge across runs with the same seed")
	}
}

func TestScorerVersionSwapStartsFreshBoard(t *testing.T) {
	h := newHarness(t, 2, 1, 11)
	var version atomic.Int64
	version.Store(1)
	s := New(Config{Chunk: 8}, Deps{Source: h.store, Active: func() (int, *core.System) {
		return int(version.Load()), h.sys
	}})

	firstScored := s.CatchUp(context.Background())
	if firstScored == 0 {
		t.Fatal("nothing scored under version 1")
	}
	rep1 := s.Report()

	// Swap. More telemetry arrives, the next pass runs under version 2.
	version.Store(2)
	_, _, more := testutil.ToyTelemetry(t, 1, 30, 12)
	h.store.RecordRun(more)
	if s.CatchUp(context.Background()) == 0 {
		t.Fatal("nothing scored under version 2")
	}

	rep2 := s.Report()
	if rep2.Version != 2 {
		t.Fatalf("report version = %d, want 2", rep2.Version)
	}
	if rep2.WindowsScored >= rep1.WindowsScored+firstScored {
		t.Fatalf("board not reset at swap: scored %d", rep2.WindowsScored)
	}
	if rep2.Previous == nil || rep2.Previous.Version != 1 || rep2.Previous.WindowsScored != firstScored {
		t.Fatalf("predecessor summary = %+v, want version 1 with %d windows", rep2.Previous, firstScored)
	}
}

// TestScorerRegressionGate: the verdict folds the windows at or after the
// trained-to mark, needs MinVerdictWindows of them, trips on the sMAPE bound,
// shows in the report, and starts over with a serving swap.
func TestScorerRegressionGate(t *testing.T) {
	h := newHarness(t, 1, 1, 21)
	n := h.store.NumWindows()

	calm := New(Config{Chunk: 8, SMAPEThreshold: 1e9}, Deps{Source: h.store, Active: h.active(1)})
	calm.CatchUp(context.Background())
	if v := calm.Verdict(n - MinVerdictWindows + 1); v != nil {
		t.Fatalf("a verdict over %d windows: %+v", MinVerdictWindows-1, v)
	}
	v := calm.Verdict(n - MinVerdictWindows)
	if v == nil || v.Windows != MinVerdictWindows {
		t.Fatalf("verdict over the last %d windows = %+v", MinVerdictWindows, v)
	}
	if all := calm.Verdict(0); all.Windows != n || all.UnknownPathFrac != 0 || all.Reason != "" {
		t.Fatalf("verdict on the training telemetry under an impossible bound = %+v", all)
	}

	// A near-zero bound trips on error alone.
	hot := New(Config{Chunk: 8, SMAPEThreshold: 1e-9}, Deps{Source: h.store, Active: h.active(1)})
	hot.CatchUp(context.Background())
	if v := hot.Verdict(0); v == nil || !strings.Contains(v.Reason, "sMAPE") {
		t.Fatalf("verdict under a near-zero bound = %+v", v)
	}
	rep := hot.Report()
	if rep.Verdict == nil || rep.Verdict.Reason == "" || rep.Summary != "red" {
		t.Fatalf("report = %q verdict=%+v, want red with the verdict", rep.Summary, rep.Verdict)
	}

	// A swap starts a fresh board: no verdict until one is taken on it.
	hot.deps.Active = h.active(2)
	hot.CatchUp(context.Background())
	if rep := hot.Report(); rep.Verdict != nil {
		t.Fatalf("verdict survived a serving swap: %+v", rep.Verdict)
	}
}

// TestScorerFlagsUnknownPaths: a new version that renames every operation
// puts every span visit on an unknown invocation path; the board reads a
// fraction near 1 and the verdict names topology drift.
func TestScorerFlagsUnknownPaths(t *testing.T) {
	h := newHarness(t, 1, 1, 23)
	store := telemetry.NewServer(h.run.WindowSeconds)
	for i, batches := range h.run.Windows {
		renamed := make([]trace.Batch, len(batches))
		for j, b := range batches {
			root := b.Trace.Root.Clone()
			renameOps(root)
			renamed[j] = trace.Batch{Trace: trace.Trace{API: b.Trace.API, Root: root}, Count: b.Count}
		}
		usage := sim.Usage{}
		for p, vs := range h.run.Usage {
			usage[p] = vs[i]
		}
		store.Record(sim.WindowResult{Batches: renamed, Usage: usage})
	}
	s := New(Config{Chunk: 8}, Deps{Source: store, Active: h.active(1)})
	s.CatchUp(context.Background())
	v := s.Verdict(0)
	if v == nil || v.UnknownPathFrac < 0.9 || !strings.Contains(v.Reason, "topology") {
		t.Fatalf("verdict on renamed operations = %+v, want an unknown-path fraction near 1", v)
	}
	if long := s.Report().Horizons[2]; long.UnknownPathFrac < 0.9 {
		t.Fatalf("24h unknown-path fraction = %v", long.UnknownPathFrac)
	}
}

// TestScorerFlagsInflatedCost: the same traffic costing 8x its trained
// utilization falls outside the intervals; the verdict trips on coverage
// with a mean sMAPE far above the default bound.
func TestScorerFlagsInflatedCost(t *testing.T) {
	h := newHarness(t, 1, 1, 23)
	store := telemetry.NewServer(h.run.WindowSeconds)
	for i, batches := range h.run.Windows {
		usage := sim.Usage{}
		for p, vs := range h.run.Usage {
			usage[p] = 8 * vs[i]
		}
		store.Record(sim.WindowResult{Batches: batches, Usage: usage})
	}
	s := New(Config{Chunk: 8}, Deps{Source: store, Active: h.active(1)})
	s.CatchUp(context.Background())
	v := s.Verdict(0)
	if v == nil || v.UnknownPathFrac != 0 || !strings.Contains(v.Reason, "coverage") || v.SMAPE < DefaultSMAPEThreshold {
		t.Fatalf("verdict on 8x utilization = %+v, want a coverage trip with sMAPE above %v", v, DefaultSMAPEThreshold)
	}
}

// TestVerdictWithoutWindows: with no telemetry, or none since the trained-to
// mark, nothing is scored and there is no verdict.
func TestVerdictWithoutWindows(t *testing.T) {
	h := newHarness(t, 1, 1, 21)
	empty := New(Config{Chunk: 8}, Deps{Source: telemetry.NewServer(h.run.WindowSeconds), Active: h.active(1)})
	if n := empty.CatchUp(context.Background()); n != 0 {
		t.Fatalf("scored %d windows of an empty store", n)
	}
	if v := empty.Verdict(0); v != nil {
		t.Fatalf("verdict on no windows = %+v", v)
	}
	s := New(Config{Chunk: 8}, Deps{Source: h.store, Active: h.active(1)})
	s.CatchUp(context.Background())
	if v := s.Verdict(h.store.NumWindows()); v != nil {
		t.Fatalf("verdict with no windows since the trained-to mark = %+v", v)
	}
}

func renameOps(s *trace.Span) {
	s.Operation += "_v2"
	for _, c := range s.Children {
		renameOps(c)
	}
}

// TestChunkPrefixMatchesFullChunk is what lets a pass score an incomplete
// chunk and a later pass replay it: the engine is causal, so a chunk's first
// k windows estimate the same bits alone as inside the whole chunk.
func TestChunkPrefixMatchesFullChunk(t *testing.T) {
	_, _, run := testutil.ToyTelemetry(t, 2, 30, 27)
	store := telemetry.NewServer(run.WindowSeconds)
	store.RecordRun(run)
	for _, hidden := range []int{3, 20} {
		opts := quickOpts()
		opts.Estimator.Hidden = hidden
		sys, err := core.Learn(store, 0, testutil.ToyDay, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		const lo, C = testutil.ToyDay, 24
		series, err := store.Features(1, sys.Extractor(), lo, lo+C)
		if err != nil {
			t.Fatal(err)
		}
		full, err := sys.ExpectedUtilizationVectors(series)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k < C; k++ {
			prefix, err := sys.ExpectedUtilizationVectors(series[:k])
			if err != nil {
				t.Fatal(err)
			}
			for p, want := range full {
				got := prefix[p]
				for w := 0; w < k; w++ {
					for _, c := range [][2]float64{{got.Exp[w], want.Exp[w]}, {got.Low[w], want.Low[w]}, {got.Up[w], want.Up[w]}} {
						if math.Float64bits(c[0]) != math.Float64bits(c[1]) {
							t.Fatalf("hidden %d, %s, window %d of a %d-window prefix: %v, full chunk %v", hidden, p, w, k, c[0], c[1])
						}
					}
				}
			}
		}
	}
}

func TestScorerRetentionClampsRings(t *testing.T) {
	h := newHarness(t, 2, 1, 31)
	h.store.SetRetention(40)
	s := New(Config{Chunk: 8, Retention: 40, Horizons: []time.Duration{100 * time.Hour}},
		Deps{Source: h.store, Active: h.active(1)})
	s.CatchUp(context.Background())
	rep := s.Report()
	if len(rep.Horizons) != 1 {
		t.Fatalf("horizons = %d", len(rep.Horizons))
	}
	if rep.Horizons[0].Windows > 40 {
		t.Fatalf("ring retained %d windows beyond the retention horizon", rep.Horizons[0].Windows)
	}
	if rep.WindowsScored == 0 {
		t.Fatal("nothing scored")
	}
}

func TestScorerMetricsExport(t *testing.T) {
	h := newHarness(t, 1, 1, 51)
	reg := obs.NewRegistry()
	s := New(Config{Chunk: 8}, Deps{Source: h.store, Active: h.active(1), Metrics: reg})
	if s.CatchUp(context.Background()) == 0 {
		t.Fatal("nothing scored")
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.Lint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("obs.Lint: %v", err)
	}
	text := buf.String()
	for _, want := range []string{
		"deeprest_quality_smape{",
		"deeprest_quality_coverage{",
		"deeprest_quality_windows_scored_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestScorerRaceWithSwaps runs scoring concurrent with serving swaps and
// report reads; meaningful under -race.
func TestScorerRaceWithSwaps(t *testing.T) {
	h := newHarness(t, 1, 1, 61)
	var version atomic.Int64
	version.Store(1)
	s := New(Config{Chunk: 4}, Deps{Source: h.store, Active: func() (int, *core.System) {
		return int(version.Load()), h.sys
	}})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			s.CatchUp(context.Background())
			_, _, more := testutil.ToyTelemetry(t, 1, 20, int64(100+i))
			h.store.RecordRun(more)
		}
		close(stop)
	}()
	go func() {
		defer wg.Done()
		for i := int64(2); ; i++ {
			select {
			case <-stop:
				return
			default:
				version.Store(i)
				s.CatchUp(context.Background())
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = s.Report()
				s.Verdict(0)
			}
		}
	}()
	wg.Wait()
}

func BenchmarkScorerCatchUp(b *testing.B) {
	h := newHarness(b, 2, 1, 71)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := New(Config{Chunk: 24}, Deps{Source: h.store, Active: h.active(1)})
		b.StartTimer()
		if s.CatchUp(context.Background()) == 0 {
			b.Fatal("nothing scored")
		}
	}
}

func BenchmarkScorerReport(b *testing.B) {
	h := newHarness(b, 2, 1, 71)
	s := New(Config{Chunk: 24}, Deps{Source: h.store, Active: h.active(1)})
	s.CatchUp(context.Background())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Report()
	}
}
