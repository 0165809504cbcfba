package estimator

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/app"
	"repro/internal/testutil"
)

// goldenConfig is the fixed training configuration behind the determinism
// goldens at the given GRU width. Any change here invalidates the recorded
// hashes.
func goldenConfig(hidden int) Config {
	cfg := DefaultConfig()
	cfg.Hidden = hidden
	cfg.Epochs = 3
	cfg.AttentionEpochs = 2
	cfg.ChunkLen = 24
	cfg.Seed = 1
	return cfg
}

// goldenPairs exercises a level target, a stateful level target, and a
// delta-kind (re-integrated) target, with enough experts for phase B.
func goldenPairs() []app.Pair {
	return []app.Pair{
		{Component: "Service", Resource: app.CPU},
		{Component: "DB", Resource: app.CPU},
		{Component: "DB", Resource: app.WriteIOps},
		{Component: "DB", Resource: app.DiskUsage},
	}
}

// lossRecorder collects per-expert epoch losses from the (concurrent)
// Progress hook, keyed "pair|phase".
type lossRecorder struct {
	mu     sync.Mutex
	losses map[string][]float64
}

func newLossRecorder() *lossRecorder {
	return &lossRecorder{losses: make(map[string][]float64)}
}

func (r *lossRecorder) hook(ev ProgressEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := ev.Pair + "|" + ev.Phase
	for len(r.losses[key]) < ev.Epoch {
		r.losses[key] = append(r.losses[key], math.NaN())
	}
	r.losses[key][ev.Epoch-1] = ev.Loss
}

// hashFloats folds the exact bit patterns of a float series into an FNV-1a
// hash: equal hashes mean bit-identical floats.
func hashFloats(vals []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range vals {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// goldenRun trains the golden model over pairs (every pair of the toy app
// when nil) at the given GRU width and returns the per-expert epoch-loss
// series and per-pair prediction hashes.
func goldenRun(t *testing.T, hidden int, pairs []app.Pair) (map[string][]float64, map[string]uint64) {
	t.Helper()
	_, _, run := testutil.ToyTelemetry(t, 2, 30, 12)
	usage := run.Usage
	if pairs != nil {
		usage = testutil.FocusPairs(usage, pairs...)
	}
	rec := newLossRecorder()
	cfg := goldenConfig(hidden)
	cfg.Progress = rec.hook
	m, _, err := TrainWarm(run.Windows, usage, cfg, nil)
	if err != nil {
		t.Fatalf("TrainWarm: %v", err)
	}
	est, err := m.PredictVectors(m.Space.ExtractSeries(run.Windows))
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	preds := make(map[string]uint64)
	for p, e := range est {
		preds[p.String()+"|exp"] = hashFloats(e.Exp)
		preds[p.String()+"|low"] = hashFloats(e.Low)
		preds[p.String()+"|up"] = hashFloats(e.Up)
	}
	return rec.losses, preds
}

// TestGoldenDeterminismCapture prints the current loss bits and prediction
// hashes in the literal form embedded below; run with -v to refresh the
// goldens after an intentional numeric change.
func TestGoldenDeterminismCapture(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("capture helper; run with -v to print goldens")
	}
	for _, g := range []struct {
		hidden int
		pairs  []app.Pair
	}{{4, goldenPairs()}, {7, goldenPairs()}, {20, goldenPairs()}, {7, nil}} {
		t.Logf("Hidden=%d, %d pairs (0: all)", g.hidden, len(g.pairs))
		losses, preds := goldenRun(t, g.hidden, g.pairs)
		keys := make([]string, 0, len(losses))
		for k := range losses {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			line := fmt.Sprintf("%q: {", k)
			for i, v := range losses[k] {
				if i > 0 {
					line += ", "
				}
				line += fmt.Sprintf("0x%016x", math.Float64bits(v))
			}
			t.Logf("%s},", line)
		}
		pk := make([]string, 0, len(preds))
		for k := range preds {
			pk = append(pk, k)
		}
		sort.Strings(pk)
		for _, k := range pk {
			t.Logf("%q: 0x%016x,", k, preds[k])
		}
	}
}

// goldenLosses holds the exact per-epoch training losses (as float64 bits)
// captured from the pre-arena, pre-fusion implementation. The optimized AD
// path must reproduce them bit for bit.
var goldenLosses = map[string][]uint64{
	"DB/cpu|attention":        {0x3fb27a9cc60afcbd, 0x3fad6fccb5cc64fa},
	"DB/cpu|train":            {0x3fd71466b3432f1f, 0x3fc2c883929ae290, 0x3fbcdb55d7111f09},
	"DB/disk_usage|attention": {0x3fc62952e23df280, 0x3fc5b6a20cede5be},
	"DB/disk_usage|train":     {0x3fd4796bb3629789, 0x3fcd7c0add81c647, 0x3fc89a6d71062b5e},
	"DB/write_iops|attention": {0x3fb826d841d194a7, 0x3fb584031852b44a},
	"DB/write_iops|train":     {0x3fcdafa8a75778dd, 0x3fbe327971c981d0, 0x3fbca740efa22984},
	"Service/cpu|attention":   {0x3fc0a4f5553d336e, 0x3fbade79c7aff11e},
	"Service/cpu|train":       {0x3fde8cd8729d293e, 0x3fd4c2d0f95ffa74, 0x3fc8cd316df16dc3},
}

// goldenPredictions holds FNV-1a hashes over the exact prediction bits from
// the same baseline run.
var goldenPredictions = map[string]uint64{
	"DB/cpu|exp":        0x5dd3c57313be0df7,
	"DB/cpu|low":        0xd56f3b6fa780ad13,
	"DB/cpu|up":         0xb9f6d54a2e879ddc,
	"DB/disk_usage|exp": 0xcb49d335b3868a74,
	"DB/disk_usage|low": 0xb56a4263e164aec4,
	"DB/disk_usage|up":  0x0a8a533e723b88dc,
	"DB/write_iops|exp": 0xd842a46daa7da075,
	"DB/write_iops|low": 0xb93ac64397acdf69,
	"DB/write_iops|up":  0x30858d20fca4cce3,
	"Service/cpu|exp":   0x446bda1a11e82b4b,
	"Service/cpu|low":   0x65a353680fbd30f4,
	"Service/cpu|up":    0x5d20de2a6dc2b24d,
}

// TestGoldenDeterminism proves the optimized hot path (tape arenas, fused
// GRU step, gradient-free inference) is numerically invisible: the same
// seed yields bit-identical epoch losses and predictions to the
// straight-line implementation this test's goldens were captured from.
func TestGoldenDeterminism(t *testing.T) {
	checkGolden(t, 4, goldenPairs(), goldenLosses, goldenPredictions)
}

// goldenLossesHidden7 and goldenPredictionsHidden7 are the same run at
// Hidden=7 — one full four-row panel plus a three-row remainder in every
// GRU mat-vec — captured at the commit before the row-panel kernels
// landed, so they pin the blocked forward to the one-row-at-a-time code it
// replaced rather than to itself.
var goldenLossesHidden7 = map[string][]uint64{
	"DB/cpu|attention":        {0x3fa3bd22779c5069, 0x3fa6870e72404097},
	"DB/cpu|train":            {0x3fc87b2f611a58de, 0x3fafbb51e18b4226, 0x3fa9ab8b5fc6b2fb},
	"DB/disk_usage|attention": {0x3fc9d9684a5ee74a, 0x3fc84a2e9cef8946},
	"DB/disk_usage|train":     {0x3fda134c64b9b6f6, 0x3fd0af92a4e3be25, 0x3fccc272499d3f14},
	"DB/write_iops|attention": {0x3fc38eb7a09f3d78, 0x3fc1f5b85b21408e},
	"DB/write_iops|train":     {0x3fdc208d18c3e107, 0x3fc8389c273b95c0, 0x3fc5dc4ff2181911},
	"Service/cpu|attention":   {0x3fb12afde0f575e6, 0x3facd1c92c38cda6},
	"Service/cpu|train":       {0x3fd2cbb04520c348, 0x3fbb5f49c053c518, 0x3fb785bc1007d48a},
}

var goldenPredictionsHidden7 = map[string]uint64{
	"DB/cpu|exp":        0x3876b718f6cc4afe,
	"DB/cpu|low":        0x496cf81f29df8e54,
	"DB/cpu|up":         0x4130c92c7ca980af,
	"DB/disk_usage|exp": 0xb6b461706de7b46a,
	"DB/disk_usage|low": 0xaa50c91ea5ff68a4,
	"DB/disk_usage|up":  0x429aea0e128dc7d7,
	"DB/write_iops|exp": 0x2414472856730e80,
	"DB/write_iops|low": 0x174471003d4f6b7a,
	"DB/write_iops|up":  0x5881d2d218f93cbb,
	"Service/cpu|exp":   0xca34c50822829968,
	"Service/cpu|low":   0x83f011b8e9cb16ea,
	"Service/cpu|up":    0x1a9219168073c224,
}

// TestGoldenDeterminismHidden7 is TestGoldenDeterminism at a width the
// four-row blocking does not divide.
func TestGoldenDeterminismHidden7(t *testing.T) {
	checkGolden(t, 7, goldenPairs(), goldenLossesHidden7, goldenPredictionsHidden7)
}

// goldenLossesHidden20 and goldenPredictionsHidden20 are the same run at
// Hidden=20 — one sixteen-column and one four-column pass of the backward
// kernels' column ladder in every recurrent sweep, a row panel and a
// sixteen-row rung in the forward — captured at the commit before the
// backward, attention-adjoint and Adam kernels landed (and before phase B
// read its states from the trajectory slab), so they pin the whole of
// training, optimizer included, to the scalar loops it ran until then.
var goldenLossesHidden20 = map[string][]uint64{
	"DB/cpu|attention":        {0x3fa973fc67685999, 0x3fa3f640942a3d35},
	"DB/cpu|train":            {0x3fd1021c67d61c8a, 0x3fad457a920a84a8, 0x3fae81f017ebd874},
	"DB/disk_usage|attention": {0x3fc7fbe37075e789, 0x3fc68b9f28d6f26a},
	"DB/disk_usage|train":     {0x3fd9b3b44c63bdcc, 0x3fc976ffd87951f2, 0x3fc89352e3a263af},
	"DB/write_iops|attention": {0x3fc067918d245a44, 0x3fbd48ef762f2cfc},
	"DB/write_iops|train":     {0x3fd75ad9d328f048, 0x3fc5eb50b44cdd6e, 0x3fc4cf7cc927526c},
	"Service/cpu|attention":   {0x3fa77e2317e5452a, 0x3fa731514efb1b94},
	"Service/cpu|train":       {0x3fd7323137dd911f, 0x3fbb0ccf1630ea5b, 0x3fb28c96c3070247},
}

var goldenPredictionsHidden20 = map[string]uint64{
	"DB/cpu|exp":        0xa6d513288b0bb6ad,
	"DB/cpu|low":        0x2939e407c8ddcbc7,
	"DB/cpu|up":         0x198bf436f91c10d0,
	"DB/disk_usage|exp": 0xd6466bc090411bea,
	"DB/disk_usage|low": 0x2a963b5d2a9a3c31,
	"DB/disk_usage|up":  0x46f929c3f728a9cf,
	"DB/write_iops|exp": 0x6f42e088e0f537f5,
	"DB/write_iops|low": 0x1001042542e60df2,
	"DB/write_iops|up":  0x9c14f53ffcdd9ad5,
	"Service/cpu|exp":   0x2628521f117df460,
	"Service/cpu|low":   0x1fec7a9f7dd71d05,
	"Service/cpu|up":    0x8b4eafcdc2823a41,
}

// TestGoldenDeterminismHidden20 is TestGoldenDeterminism at a width that
// takes both vector rungs of the column-lane backward kernels.
func TestGoldenDeterminismHidden20(t *testing.T) {
	checkGolden(t, 20, goldenPairs(), goldenLossesHidden20, goldenPredictionsHidden20)
}

// goldenLossesPeers and goldenPredictionsPeers are the toy app's every pair —
// nine experts, so phase B's attention adjoint runs over eight peers, two
// full lane groups with self inside one — over its 96 windows (four chunks
// an epoch) at Hidden=7, captured at the commit before phase B deferred that
// adjoint to one peer-minor pass per chunk.
var goldenLossesPeers = map[string][]uint64{
	"DB/cpu|attention":         {0x3fa285d88107dc28, 0x3fa4dc0fe0137c59},
	"DB/cpu|train":             {0x3fc87b2f611a58de, 0x3fafbb51e18b4226, 0x3fa9ab8b5fc6b2fb},
	"DB/disk_usage|attention":  {0x3fc6afe436428a7c, 0x3fc65dc3e5c2272d},
	"DB/disk_usage|train":      {0x3fdbf29585f9e0e0, 0x3fcfd6fd45673008, 0x3fc785ab396326f1},
	"DB/memory|attention":      {0x3fc1d30b5eec3bda, 0x3fbf02db88cbc95e},
	"DB/memory|train":          {0x3fe6ace948c00dfc, 0x3fd3c31c24426af5, 0x3fc53956bff9598c},
	"DB/write_iops|attention":  {0x3fbaa309f95aac3e, 0x3fb48bf3ee7bba80},
	"DB/write_iops|train":      {0x3fd3cd5151857707, 0x3fc2307d05aab2a6, 0x3fc1128eef4c26df},
	"DB/write_tput|attention":  {0x3fb01327e5573298, 0x3fa8bac3b48a6a2f},
	"DB/write_tput|train":      {0x3fcd063925c726a1, 0x3fbbe10f7f9a5d6d, 0x3fb520834afd2f1a},
	"Gateway/cpu|attention":    {0x3fc1f5493173f3ba, 0x3fb5e4f0c19739d6},
	"Gateway/cpu|train":        {0x3fef3445339c796a, 0x3fe1b676758ef12e, 0x3fcf9b59c62b8fb2},
	"Gateway/memory|attention": {0x3fab05f96ae6a616, 0x3fab914ca372a531},
	"Gateway/memory|train":     {0x3fdb1d242857e10c, 0x3fbe02b7d5f7baf1, 0x3fac86593bff8d74},
	"Service/cpu|attention":    {0x3fb255f09ff35883, 0x3faed55823faf000},
	"Service/cpu|train":        {0x3fd45d46af31e1d9, 0x3fc251139a4e34dc, 0x3fb916976550dfb4},
	"Service/memory|attention": {0x3fb8d341ecc20663, 0x3fb248db521757b3},
	"Service/memory|train":     {0x3fd8ee1978e39677, 0x3fba8ba906fbd9e4, 0x3fba5c08f9263b0d},
}

var goldenPredictionsPeers = map[string]uint64{
	"DB/cpu|exp":         0x648e0d51f7f6ee22,
	"DB/cpu|low":         0x9a1cb9575e1b5e25,
	"DB/cpu|up":          0x9eb3638663073eec,
	"DB/disk_usage|exp":  0x42f8fae10769c9dc,
	"DB/disk_usage|low":  0x9670b74174de8736,
	"DB/disk_usage|up":   0x50ba38ce17b6d52f,
	"DB/memory|exp":      0xf93634fe2b43dcd6,
	"DB/memory|low":      0xb4cd5c4af61f4d04,
	"DB/memory|up":       0x9eb7ccc28c3ff48e,
	"DB/write_iops|exp":  0x37a42b5bcc3c1cb2,
	"DB/write_iops|low":  0xa549a656038dac73,
	"DB/write_iops|up":   0x48db084f57f0f808,
	"DB/write_tput|exp":  0xa49d0a2dc54909a4,
	"DB/write_tput|low":  0x7f5df80ed6658202,
	"DB/write_tput|up":   0x9c9b4bfb5e311f22,
	"Gateway/cpu|exp":    0xbf65cfc461ac43ce,
	"Gateway/cpu|low":    0x7268d4556cf370e4,
	"Gateway/cpu|up":     0x3cb3593018ac34c7,
	"Gateway/memory|exp": 0xa98ef9e789766813,
	"Gateway/memory|low": 0x85f7c7d4129757c6,
	"Gateway/memory|up":  0x78354cf66139b420,
	"Service/cpu|exp":    0x480042e8da94016c,
	"Service/cpu|low":    0x62ef1e4a1a0ba9bc,
	"Service/cpu|up":     0xc02f7f0175f65192,
	"Service/memory|exp": 0xcf6dfceb450626f8,
	"Service/memory|low": 0xdf73c4c0f81dfabe,
	"Service/memory|up":  0xccf12a7f9c7df5b5,
}

// TestGoldenDeterminismPeers is TestGoldenDeterminism where the peers fill
// more than one lane group of the attention kernels.
func TestGoldenDeterminismPeers(t *testing.T) {
	checkGolden(t, 7, nil, goldenLossesPeers, goldenPredictionsPeers)
}

func checkGolden(t *testing.T, hidden int, pairs []app.Pair, goldenLosses map[string][]uint64, goldenPredictions map[string]uint64) {
	t.Helper()
	losses, preds := goldenRun(t, hidden, pairs)

	// Two runs in one process must agree bitwise regardless of platform:
	// tape pooling, expert parallelism, and buffer reuse may not leak
	// state between runs.
	losses2, preds2 := goldenRun(t, hidden, pairs)
	for k, want := range losses {
		got := losses2[k]
		if len(got) != len(want) {
			t.Fatalf("%s: %d epochs vs %d on rerun", k, len(want), len(got))
		}
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Errorf("%s epoch %d: %x vs %x across runs", k, i+1, math.Float64bits(want[i]), math.Float64bits(got[i]))
			}
		}
	}
	for k, want := range preds {
		if preds2[k] != want {
			t.Errorf("%s: prediction hash %016x vs %016x across runs", k, want, preds2[k])
		}
	}

	// The recorded goldens encode exact amd64 arithmetic; other
	// architectures may legally differ (e.g. fused multiply-add).
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits recorded on amd64; running on %s", runtime.GOARCH)
	}
	if len(goldenLosses) == 0 {
		t.Fatal("goldenLosses not recorded")
	}
	for k, want := range goldenLosses {
		got, ok := losses[k]
		if !ok {
			t.Errorf("missing loss series %s", k)
			continue
		}
		if len(got) != len(want) {
			t.Errorf("%s: %d epochs, want %d", k, len(got), len(want))
			continue
		}
		for i, wb := range want {
			if gb := math.Float64bits(got[i]); gb != wb {
				t.Errorf("%s epoch %d: loss bits %016x, want %016x (value %v vs %v)",
					k, i+1, gb, wb, got[i], math.Float64frombits(wb))
			}
		}
	}
	for k, want := range goldenPredictions {
		if got, ok := preds[k]; !ok || got != want {
			t.Errorf("%s: prediction hash %016x, want %016x", k, preds[k], want)
		}
	}
}
