package baselines

import (
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/testutil"
)

// raGolden trains the resource-aware baseline on every pair of three toy
// days, level pairs and the DB/disk_usage counter alike, and folds each
// pair's name and forecast bits (two days and five windows, so the last
// block is partial) into one FNV-1a hash, pairs in name order.
func raGolden(t *testing.T, hidden int) uint64 {
	t.Helper()
	_, _, run := testutil.ToyTelemetry(t, 3, 30, 11)
	if _, ok := run.Usage[app.Pair{Component: "DB", Resource: app.DiskUsage}]; !ok || len(run.Usage) != 9 {
		t.Fatalf("the fixture has %d pairs; want the toy's 9, DB/disk_usage among them", len(run.Usage))
	}
	cfg := DefaultRAConfig()
	cfg.Hidden, cfg.Epochs, cfg.ChunkLen = hidden, 5, 24
	r, err := TrainResourceAware(run.Usage, testutil.ToyDay, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([]app.Pair, 0, len(run.Usage))
	for p := range run.Usage {
		pairs = append(pairs, p)
	}
	slices.SortFunc(pairs, func(a, b app.Pair) int { return strings.Compare(a.String(), b.String()) })
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range pairs {
		fc, err := r.Forecast(p, 2*testutil.ToyDay+5)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(p.String()))
		for _, v := range fc {
			bits := math.Float64bits(v)
			for i := range buf {
				buf[i] = byte(bits >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestResourceAwareGolden pins the baseline's forecasts bit for bit: its
// training shares DeepRest's chunk loop, worker pool and target scaling, and
// any change to those that moves a bit shows here as well as in the
// estimator's goldens.
func TestResourceAwareGolden(t *testing.T) {
	// Recorded on amd64; other architectures may legally fuse
	// multiply-adds and differ in the last bit.
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits recorded on amd64; running on %s", runtime.GOARCH)
	}
	for hidden, want := range map[int]uint64{4: 0x31fcfaf4b04dec55, 16: 0xa8c020f325b8e404} {
		if got := raGolden(t, hidden); got != want {
			t.Errorf("hidden %d: forecast hash %#016x, want %#016x", hidden, got, want)
		}
	}
}

// TestResourceAwareRefusesNonFiniteLoss: a NaN sample in a pair's history
// fails training with an error naming the pair, as DeepRest's training
// does, instead of returning a model that forecasts NaN.
func TestResourceAwareRefusesNonFiniteLoss(t *testing.T) {
	wpd := 24
	good := app.Pair{Component: "A", Resource: app.CPU}
	bad := app.Pair{Component: "B", Resource: app.CPU}
	series := make([]float64, 3*wpd)
	for i := range series {
		series[i] = 50 + 40*math.Sin(2*math.Pi*float64(i%wpd)/float64(wpd))
	}
	poisoned := append([]float64(nil), series...)
	poisoned[2*wpd+3] = math.NaN()
	cfg := DefaultRAConfig()
	cfg.Epochs = 2
	r, err := TrainResourceAware(map[app.Pair][]float64{good: series, bad: poisoned}, wpd, cfg)
	if err == nil || !strings.Contains(err.Error(), bad.String()) || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("TrainResourceAware with a NaN sample: model %v, err %v; want a non-finite loss naming %s", r != nil, err, bad)
	}
}
