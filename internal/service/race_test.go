package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/app"
	"repro/internal/faults"
	"repro/internal/pipeline"
	"repro/internal/telemetry"
	"repro/internal/testutil"
	"repro/internal/workload"
)

// TestPredictRaceUnderGenerationSwaps is the race wall: many goroutines
// hammer /v1/estimate and the active model's tape forward directly while the
// pipeline publishes fresh generations — some succeeding, some failing from
// an injected fault schedule — and rollbacks flip the active pointer. Run
// under -race (make check does), this proves the RCU read side: queries
// never block on training, never observe a half-swapped model, and keep
// succeeding through injected retrain failures.
func TestPredictRaceUnderGenerationSwaps(t *testing.T) {
	pcfg := pipeline.DefaultConfig()
	// Roughly every other training attempt fails, deterministically.
	pcfg.Faults = faults.NewSchedule(faults.MustParse("seed=17;retrainfail:prob=0.5,from=2"))
	s := newFaultService(t, pcfg, Config{})
	h := s.Handler()

	if rec := do(t, h, "POST", "/v1/telemetry", telemetryBody(t, 1, 30, 64)); rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, h, "POST", "/v1/learn", bytes.NewBufferString(`{"pairs":["Service/cpu"]}`)); rec.Code != http.StatusOK {
		t.Fatalf("learn = %d: %s", rec.Code, rec.Body)
	}
	store := s.store
	windows, err := store.Traces(0, store.NumWindows())
	if err != nil {
		t.Fatal(err)
	}

	const (
		readers  = 8
		queries  = 40
		retrains = 12
	)
	var served atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writer: retrains (half of which fail by injection) and rollbacks.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < retrains; i++ {
			_, err := s.Pipeline().TrainOnce(0, 0, nil, "manual")
			if err != nil && !isInjected(err) {
				t.Errorf("retrain %d: %v", i, err)
				return
			}
			if gens := s.Pipeline().Registry().Generations(); len(gens) > 1 && i%3 == 2 {
				if _, err := s.Pipeline().Activate(gens[0].Version); err != nil {
					t.Errorf("rollback: %v", err)
					return
				}
			}
		}
	}()

	// Readers: HTTP predictions (estimate table → compiled engine),
	// direct model reads, and direct engine-path estimates, concurrently
	// with the swaps above. The rotating request bodies defeat the estimate
	// table so the miss path and engine stay hot across generation flips
	// while generations retire from the registry mid-read.
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					if i >= queries {
						return
					}
				default:
				}
				switch g % 3 {
				case 0:
					body := fmt.Sprintf(`{"windows":[{"/read":%d,"/write":4},{"/read":%d,"/write":6}]}`,
						10+i%7, 20+i%7)
					rec := do(t, h, "POST", "/v1/estimate", bytes.NewBufferString(body))
					if rec.Code != http.StatusOK {
						t.Errorf("predict = %d: %s", rec.Code, rec.Body)
						return
					}
					var resp estimateResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
						t.Error(err)
						return
					}
					if resp.Version < 1 {
						t.Errorf("predict served version %d", resp.Version)
						return
					}
				case 1:
					gen := s.Pipeline().Active()
					if gen == nil {
						t.Error("active generation vanished")
						return
					}
					m := gen.Model()
					if _, err := m.PredictVectors(m.Space.ExtractSeries(windows)); err != nil {
						t.Errorf("PredictVectors: %v", err)
						return
					}
				default:
					// Engine path: EstimateTraffic runs on the generation's
					// compiled snapshot and must keep answering through
					// activates, retirements, and swaps.
					gen := s.Pipeline().Active()
					if gen == nil {
						t.Error("active generation vanished")
						return
					}
					traffic := &workload.Traffic{
						Windows:       []map[string]int{{"/read": 10 + i%5, "/write": 4}},
						WindowSeconds: 60,
						WindowsPerDay: 1,
					}
					if _, err := gen.System.EstimateTraffic(traffic); err != nil {
						t.Errorf("EstimateTraffic: %v", err)
						return
					}
				}
				served.Add(1)
			}
		}(g)
	}
	wg.Wait()

	if served.Load() < readers*queries {
		t.Fatalf("served %d queries, want at least %d", served.Load(), readers*queries)
	}
	// The injected schedule must have actually exercised the failure path.
	failed := false
	for a := 2; a < 2+retrains; a++ {
		if pcfg.Faults.FailTraining(a) {
			failed = true
		}
	}
	if !failed {
		t.Fatal("fault schedule never injected a failure; tighten the spec")
	}
}

func isInjected(err error) bool {
	return errors.Is(err, pipeline.ErrFaultInjected)
}

// TestConcurrentStreamsLandContiguous: telemetry streams racing into one
// tenant each land as one unbroken run of windows — the store is some
// ordering of whole streams, never an interleaving — while estimate misses,
// sanity checks and the quality scoreboard read the same store. Run under
// -race it is also the proof that no reader needs a lock in front of the
// store.
func TestConcurrentStreamsLandContiguous(t *testing.T) {
	s := newFaultService(t, pipeline.DefaultConfig(), Config{})
	h := s.Handler()
	if rec := do(t, h, "POST", "/v1/telemetry", telemetryBody(t, 1, 30, 64)); rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, h, "POST", "/v1/learn", bytes.NewBufferString(`{"pairs":["Service/cpu"]}`)); rec.Code != http.StatusOK {
		t.Fatalf("learn = %d: %s", rec.Code, rec.Body)
	}

	const streams = 6
	cpu := app.Pair{Component: "Service", Resource: app.CPU}
	bodies := make([]*bytes.Buffer, streams)
	series := make([][]float64, streams)
	for k := range bodies {
		_, _, run := testutil.ToyTelemetry(t, 1, 30, int64(100+k))
		in := telemetry.NewServer(run.WindowSeconds)
		in.RecordRun(run)
		bodies[k] = &bytes.Buffer{}
		if err := in.ExportJSON(bodies[k]); err != nil {
			t.Fatal(err)
		}
		series[k] = run.Usage[cpu]
	}

	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var code int
				switch g {
				case 0: // rotating bodies: every estimate is a miss
					code = do(t, h, "POST", "/v1/estimate", bytes.NewBufferString(
						fmt.Sprintf(`{"windows":[{"/read":%d,"/write":4}]}`, 10+i))).Code
				case 1:
					code = do(t, h, "POST", "/v1/sanity", bytes.NewBufferString(
						fmt.Sprintf(`{"from":0,"to":%d}`, testutil.ToyDay))).Code
				default:
					code = do(t, h, "GET", "/v1/quality", nil).Code
				}
				if code != http.StatusOK {
					t.Errorf("reader %d: status %d", g, code)
					return
				}
			}
		}(g)
	}
	for k := range bodies {
		writers.Add(1)
		go func(k int) {
			defer writers.Done()
			if rec := do(t, h, "POST", "/v1/telemetry", bodies[k]); rec.Code != http.StatusOK {
				t.Errorf("stream %d = %d: %s", k, rec.Code, rec.Body)
			}
		}(k)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	if got, want := s.store.NumWindows(), (1+streams)*testutil.ToyDay; got != want {
		t.Fatalf("store holds %d windows, want %d", got, want)
	}
	landed := make(map[int]bool)
	for at := testutil.ToyDay; at < s.store.NumWindows(); at += testutil.ToyDay {
		got, err := s.store.Metric(cpu, at, at+testutil.ToyDay)
		if err != nil {
			t.Fatal(err)
		}
		whole := -1
		for k := range series {
			if !landed[k] && slices.Equal(got, series[k]) {
				whole = k
			}
		}
		if whole < 0 {
			t.Fatalf("windows [%d, %d) are no one stream's: two streams interleaved", at, at+testutil.ToyDay)
		}
		landed[whole] = true
	}
}
