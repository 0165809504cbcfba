package eval

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/app"
)

func TestHeatmapRenderAndMean(t *testing.T) {
	errs := map[app.Pair]float64{
		{Component: "A", Resource: app.CPU}:       5,
		{Component: "A", Resource: app.Memory}:    15,
		{Component: "B", Resource: app.CPU}:       50,
		{Component: "B", Resource: app.DiskUsage}: math.NaN(),
	}
	h := NewHeatmap("TestAlgo", []string{"A", "B"}, errs)
	out := h.Render()
	if !strings.Contains(out, "TestAlgo") || !strings.Contains(out, "cpu") {
		t.Errorf("Render = %q", out)
	}
	if !strings.Contains(out, "----") {
		t.Error("inapplicable cells must render as ----")
	}
	mean := h.MeanMAPE()
	want := (5.0 + 15 + 50) / 3
	if math.Abs(mean-want) > 1e-9 {
		t.Errorf("MeanMAPE = %v, want %v", mean, want)
	}
}

func TestHeatmapAllNaN(t *testing.T) {
	h := NewHeatmap("x", []string{"A"}, map[app.Pair]float64{
		{Component: "A", Resource: app.CPU}: math.NaN(),
	})
	if !math.IsNaN(h.MeanMAPE()) {
		t.Error("all-NaN heatmap mean must be NaN")
	}
}

func TestGradeBuckets(t *testing.T) {
	cases := []struct {
		mape float64
		want string
	}{
		{5, "++"}, {15, "+"}, {30, "o"}, {60, "-"}, {200, "--"},
	}
	for _, c := range cases {
		if got := strings.TrimSpace(grade(c.mape)); got != c.want {
			t.Errorf("grade(%v) = %q, want %q", c.mape, got, c.want)
		}
	}
	if got := strings.TrimSpace(grade(math.NaN())); got != "----" {
		t.Errorf("grade(NaN) = %q", got)
	}
}

// TestPCARecoversDominantDirection: points stretched along one axis must
// project their variance onto the first component.
func TestPCARecoversDominantDirection(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n, d := 40, 6
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		long := rng.NormFloat64() * 10
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64() * 0.1
		}
		rows[i][2] += long // dominant direction = axis 2
	}
	proj := PCA(rows, 2, 60)
	if len(proj) != n || len(proj[0]) != 2 {
		t.Fatalf("projection shape %dx%d", len(proj), len(proj[0]))
	}
	var var1, var2 float64
	for _, p := range proj {
		var1 += p[0] * p[0]
		var2 += p[1] * p[1]
	}
	if var1 < 50*var2 {
		t.Errorf("first PC variance %v should dominate second %v", var1, var2)
	}
}

// TestPCASeparatesClusters: two well-separated clusters must stay separated
// in projection.
func TestPCASeparatesClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var rows [][]float64
	labels := []int{}
	for c := 0; c < 2; c++ {
		for i := 0; i < 10; i++ {
			row := make([]float64, 8)
			for j := range row {
				row[j] = float64(c)*5 + rng.NormFloat64()*0.2
			}
			rows = append(rows, row)
			labels = append(labels, c)
		}
	}
	proj := PCA(rows, 2, 60)
	// All cluster-0 points must be on one side of the midpoint of PC1.
	m0, m1, n0, n1 := 0.0, 0.0, 0, 0
	for i, p := range proj {
		if labels[i] == 0 {
			m0 += p[0]
			n0++
		} else {
			m1 += p[0]
			n1++
		}
	}
	m0 /= float64(n0)
	m1 /= float64(n1)
	if math.Abs(m0-m1) < 1 {
		t.Errorf("cluster means too close: %v vs %v", m0, m1)
	}
}

func TestPCAEdgeCases(t *testing.T) {
	if PCA(nil, 2, 10) != nil {
		t.Error("PCA(nil) should be nil")
	}
	if PCA([][]float64{{1, 2}}, 0, 10) != nil {
		t.Error("PCA with k=0 should be nil")
	}
	// Identical rows: projections all zero, no NaN.
	rows := [][]float64{{1, 1}, {1, 1}, {1, 1}}
	proj := PCA(rows, 1, 10)
	for _, p := range proj {
		if math.IsNaN(p[0]) {
			t.Error("PCA produced NaN on degenerate input")
		}
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 8)
	if got := len([]rune(s)); got != 8 {
		t.Fatalf("sparkline width = %d", got)
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[7] != '█' {
		t.Errorf("sparkline = %q", s)
	}
	if Sparkline(nil, 10) != "" {
		t.Error("empty series should render empty")
	}
	// Downsampling keeps requested width.
	long := make([]float64, 100)
	for i := range long {
		long[i] = float64(i)
	}
	if got := len([]rune(Sparkline(long, 10))); got != 10 {
		t.Errorf("downsampled width = %d", got)
	}
	// Constant series: no panic, all same level.
	flat := Sparkline([]float64{5, 5, 5}, 3)
	if len([]rune(flat)) != 3 {
		t.Error("flat sparkline broken")
	}
}

func TestSeriesSummary(t *testing.T) {
	s := SeriesSummary([]float64{1, 2, 3})
	if !strings.Contains(s, "min=1.0") || !strings.Contains(s, "max=3.0") {
		t.Errorf("SeriesSummary = %q", s)
	}
	if SeriesSummary(nil) != "(empty)" {
		t.Error("empty summary")
	}
}

func TestMAPEDelegation(t *testing.T) {
	// eval.MAPE must floor the denominator at MAPEFloor.
	got := MAPE([]float64{1}, []float64{0.0001})
	want := 100 * (1 - 0.0001) / MAPEFloor
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("MAPE = %v, want %v", got, want)
	}
}

// Property: PCA projections are invariant to adding a constant offset to
// every row (centering).
func TestPCATranslationInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := make([][]float64, 8)
		shifted := make([][]float64, 8)
		off := rng.NormFloat64() * 100
		for i := range rows {
			rows[i] = make([]float64, 5)
			shifted[i] = make([]float64, 5)
			for j := range rows[i] {
				rows[i][j] = rng.NormFloat64()
				shifted[i][j] = rows[i][j] + off
			}
		}
		a := PCA(rows, 1, 40)
		b := PCA(shifted, 1, 40)
		for i := range a {
			// Sign may flip; compare magnitudes.
			if math.Abs(math.Abs(a[i][0])-math.Abs(b[i][0])) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
