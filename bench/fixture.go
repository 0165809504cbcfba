package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/workload"
)

// Window geometry of every fixture; the same as deeprestd's own -app
// bootstrap, so the harness pushes what the daemon would have simulated.
const (
	windowsPerDay = 48
	windowSeconds = 60
	peakRPS       = 30
	// chunkWindows is the size of one POST /v1/telemetry stream.
	chunkWindows = 4
	// extraWindows follow the training range and feed the pushes that run
	// beside the reads (one chunk per second per tenant).
	extraWindows = 64
)

// fixture is the seeded input of one application: its telemetry, cut into
// the chunks the harness pushes, and what is needed to build estimate bodies.
type fixture struct {
	appArg      string
	mix         workload.Mix
	apis        map[string]bool // APIs seen in the training range; bodies use no other
	chunks      [][]byte        // telemetry JSON streams of chunkWindows windows each
	trainChunks int             // chunks[:trainChunks] are ingested and learned in set-up
	topoMs      float64         // topo.Resolve
	simMs       float64         // sim.Cluster.Run
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func buildFixture(appArg string, seed int64, trainWindows int) (*fixture, error) {
	t0 := time.Now()
	spec, mix, err := topo.Resolve(appArg)
	if err != nil {
		return nil, fmt.Errorf("fixture %s: %w", appArg, err)
	}
	f := &fixture{appArg: appArg, mix: mix, apis: map[string]bool{}, topoMs: ms(time.Since(t0))}

	total := trainWindows + extraWindows
	days := (total + windowsPerDay - 1) / windowsPerDay
	prog := workload.Uniform(days, workload.DaySpec{Shape: workload.TwoPeak{}, Mix: mix, PeakRPS: peakRPS})
	prog.WindowsPerDay = windowsPerDay
	prog.WindowSeconds = windowSeconds
	prog.Seed = seed
	traffic := prog.Generate().Slice(0, total)
	for _, w := range traffic.Windows[:trainWindows] {
		for api, n := range w {
			if n > 0 {
				f.apis[api] = true
			}
		}
	}

	cluster, err := sim.NewCluster(spec, seed)
	if err != nil {
		return nil, fmt.Errorf("fixture %s: %w", appArg, err)
	}
	t0 = time.Now()
	run, err := cluster.Run(traffic)
	if err != nil {
		return nil, fmt.Errorf("fixture %s: simulate: %w", appArg, err)
	}
	f.simMs = ms(time.Since(t0))

	f.trainChunks = trainWindows / chunkWindows
	for from := 0; from+chunkWindows <= total; from += chunkWindows {
		ts := telemetry.NewServer(windowSeconds)
		ts.RecordRun(run.Slice(from, from+chunkWindows))
		var buf bytes.Buffer
		if err := ts.ExportJSON(&buf); err != nil {
			return nil, fmt.Errorf("fixture %s: export: %w", appArg, err)
		}
		f.chunks = append(f.chunks, buf.Bytes())
	}
	return f, nil
}

// estimateBody is the /v1/estimate request document.
type estimateBody struct {
	Windows       []map[string]int `json:"windows"`
	WindowsPerDay int              `json:"windows_per_day"`
}

// body builds one estimate request: a day of n windows drawn from the
// application's mix with its own seed, so two seeds give two distinct days.
func (f *fixture) body(seed int64, n int) []byte {
	prog := workload.Uniform(1, workload.DaySpec{Shape: workload.TwoPeak{}, Mix: f.mix, PeakRPS: peakRPS})
	prog.WindowsPerDay = n
	prog.WindowSeconds = windowSeconds
	prog.Seed = seed
	windows := prog.Generate().Windows
	for _, w := range windows {
		for api := range w {
			if !f.apis[api] {
				delete(w, api)
			}
		}
	}
	// Marshalling a map sorts its keys, so the bytes depend on the seed alone.
	b, err := json.Marshal(estimateBody{Windows: windows, WindowsPerDay: n})
	if err != nil {
		panic(err) // ints and strings always marshal
	}
	return b
}

// splitmix64 is the stateless mixer behind every per-request draw: request
// i's inputs are a pure function of (seed, stream, i), whichever goroutine
// asks for them.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func draw(seed int64, stream, i int) uint64 {
	return splitmix64(splitmix64(uint64(seed)) ^ uint64(stream)<<32 ^ uint64(i))
}

// unit maps a mixed value to [0, 1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }
