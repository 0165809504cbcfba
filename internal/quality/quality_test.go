package quality

import (
	"bytes"
	"context"
	"encoding/json"
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
	sys, err := core.Learn(store, 0, trainDays*testutil.ToyDay, quickOpts())
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
	wantScored := (h.store.NumWindows() / 8) * 8
	if scored != wantScored {
		t.Fatalf("scored %d windows, want %d (chunk-aligned)", scored, wantScored)
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
	// DiskUsage pairs are excluded like drift does.
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

func TestScorerRegressionGate(t *testing.T) {
	h := newHarness(t, 1, 1, 21)

	// An impossible threshold never trips.
	calm := New(Config{Chunk: 8, SMAPEThreshold: 1e9, SustainWindows: 3},
		Deps{Source: h.store, Active: h.active(1)})
	calm.CatchUp(context.Background())
	if bad, _ := calm.Regressed(); bad {
		t.Fatal("gate tripped under an impossible threshold")
	}

	// A zero threshold disables the gate entirely.
	off := New(Config{Chunk: 8, SustainWindows: 1}, Deps{Source: h.store, Active: h.active(1)})
	off.CatchUp(context.Background())
	if bad, _ := off.Regressed(); bad {
		t.Fatal("gate tripped while disabled")
	}

	// A near-zero threshold trips after SustainWindows consecutive windows.
	hot := New(Config{Chunk: 8, SMAPEThreshold: 1e-9, SustainWindows: 3},
		Deps{Source: h.store, Active: h.active(1)})
	hot.CatchUp(context.Background())
	bad, reason := hot.Regressed()
	if !bad || reason == "" {
		t.Fatalf("gate did not trip: %v %q", bad, reason)
	}
	rep := hot.Report()
	if !rep.Regressed || rep.Summary != "red" {
		t.Fatalf("report = %q regressed=%v, want red/true", rep.Summary, rep.Regressed)
	}

	// A swap resets the gate with the fresh board.
	hot.deps.Active = h.active(2)
	hot.CatchUp(context.Background())
	if bad, _ := hot.Regressed(); bad {
		t.Fatal("gate survived a serving swap")
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
	s := New(Config{Chunk: 4, SMAPEThreshold: 50}, Deps{Source: h.store, Active: func() (int, *core.System) {
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
				s.Regressed()
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
