package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestShapesBounded(t *testing.T) {
	shapes := []Shape{TwoPeak{}, Flat{}, OnePeak{}, High{}}
	for _, s := range shapes {
		for w := 0; w < 96; w++ {
			v := s.Intensity(w, 96)
			if v <= 0 || v > 1 {
				t.Errorf("%s intensity(%d) = %v out of (0,1]", s.Name(), w, v)
			}
		}
	}
}

func TestTwoPeakHasTwoPeaks(t *testing.T) {
	s := TwoPeak{}
	wpd := 96
	peaks := 0
	last := -wpd
	max := 0.0
	for w := 0; w < wpd; w++ {
		if v := s.Intensity(w, wpd); v > max {
			max = v
		}
	}
	for w := 1; w < wpd-1; w++ {
		v := s.Intensity(w, wpd)
		if v >= 0.7*max && v >= s.Intensity(w-1, wpd) && v >= s.Intensity(w+1, wpd) && w-last > wpd/6 {
			peaks++
			last = w
		}
	}
	if peaks != 2 {
		t.Errorf("TwoPeak produced %d peaks, want 2", peaks)
	}
}

func TestFlatIsFlat(t *testing.T) {
	s := Flat{}
	v0 := s.Intensity(0, 96)
	for w := 1; w < 96; w++ {
		if s.Intensity(w, 96) != v0 {
			t.Fatal("Flat must be constant")
		}
	}
}

func TestMixNormalize(t *testing.T) {
	m := Mix{"a": 2, "b": 2}.Normalize()
	if m["a"] != 0.5 || m["b"] != 0.5 {
		t.Errorf("Normalize = %v", m)
	}
	if got := (Mix{}).Normalize(); len(got) != 0 {
		t.Error("empty mix should normalise to empty")
	}
}

func testProgram(seed int64) Program {
	p := Uniform(2, DaySpec{Shape: TwoPeak{}, Mix: Mix{"/a": 0.6, "/b": 0.4}, PeakRPS: 20})
	p.WindowsPerDay = 48
	p.WindowSeconds = 60
	p.Seed = seed
	return p
}

func TestGenerateDeterminism(t *testing.T) {
	t1 := testProgram(5).Generate()
	t2 := testProgram(5).Generate()
	if t1.NumWindows() != t2.NumWindows() {
		t.Fatal("window count mismatch")
	}
	for w := range t1.Windows {
		for api, c := range t1.Windows[w] {
			if t2.Windows[w][api] != c {
				t.Fatalf("window %d api %s: %d vs %d", w, api, c, t2.Windows[w][api])
			}
		}
	}
	t3 := testProgram(6).Generate()
	if t1.TotalRequests() == t3.TotalRequests() {
		t.Error("different seeds should generally differ")
	}
}

func TestGenerateGeometry(t *testing.T) {
	tr := testProgram(1).Generate()
	if tr.NumWindows() != 96 {
		t.Errorf("NumWindows = %d, want 96", tr.NumWindows())
	}
	if tr.WindowsPerDay != 48 || tr.WindowSeconds != 60 {
		t.Error("geometry not propagated")
	}
	if len(tr.APIs) != 2 {
		t.Errorf("APIs = %v", tr.APIs)
	}
}

func TestSeriesAndTotals(t *testing.T) {
	tr := testProgram(2).Generate()
	a := tr.Series("/a")
	b := tr.Series("/b")
	total := tr.TotalSeries()
	for w := range total {
		if math.Abs(total[w]-(a[w]+b[w])) > 1e-9 {
			t.Fatalf("window %d: total %v != %v + %v", w, total[w], a[w], b[w])
		}
		if tr.WindowTotal(w) != int(total[w]) {
			t.Fatalf("WindowTotal mismatch at %d", w)
		}
	}
	sum := 0.0
	for _, v := range total {
		sum += v
	}
	if int(sum) != tr.TotalRequests() {
		t.Error("TotalRequests mismatch")
	}
}

func TestSliceAndAppend(t *testing.T) {
	tr := testProgram(3).Generate()
	first := tr.Slice(0, 48)
	second := tr.Slice(48, 96)
	if first.NumWindows() != 48 || second.NumWindows() != 48 {
		t.Fatal("Slice sizes wrong")
	}
	joined, err := first.Append(second)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if joined.TotalRequests() != tr.TotalRequests() {
		t.Error("Append lost requests")
	}
	other := testProgram(3)
	other.WindowsPerDay = 24
	if _, err := first.Append(other.Generate()); err == nil {
		t.Error("Append with mismatched geometry must fail")
	}
}

func TestMixShareRoughlyHonored(t *testing.T) {
	tr := testProgram(4).Generate()
	a := sum(tr.Series("/a"))
	total := float64(tr.TotalRequests())
	share := a / total
	if share < 0.5 || share > 0.7 {
		t.Errorf("share of /a = %.3f, want ≈0.6", share)
	}
}

func sum(s []float64) float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func TestPhaseSpreadShiftsPeaks(t *testing.T) {
	p := testProgram(7)
	p.PhaseSpread = 0.1
	p.NoiseCV = 0
	p.MixJitter = 0
	p.DayJitter = 0
	tr := p.Generate()
	// The two APIs should peak at different windows.
	pa := argmax(tr.Series("/a")[:48])
	pb := argmax(tr.Series("/b")[:48])
	if pa == pb {
		t.Errorf("phase spread did not separate peaks (both at %d)", pa)
	}
	// Without spread they coincide.
	p2 := testProgram(7)
	p2.PhaseSpread = 0
	p2.NoiseCV = 0
	p2.MixJitter = 0
	p2.DayJitter = 0
	tr2 := p2.Generate()
	if argmax(tr2.Series("/a")[:48]) != argmax(tr2.Series("/b")[:48]) {
		t.Error("without phase spread peaks must coincide")
	}
}

func argmax(s []float64) int {
	best, bi := math.Inf(-1), 0
	for i, v := range s {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// Property: scaling PeakRPS by k scales total volume by ≈k.
func TestVolumeScalesWithPeakProperty(t *testing.T) {
	f := func(k8 uint8) bool {
		k := 1 + float64(k8%4)
		base := testProgram(11)
		base.NoiseCV = 0
		base.DayJitter = 0
		base.MixJitter = 0
		scaled := base
		scaled.Days = []DaySpec{}
		for _, d := range base.Days {
			d.PeakRPS *= k
			scaled.Days = append(scaled.Days, d)
		}
		b := float64(base.Generate().TotalRequests())
		s := float64(scaled.Generate().TotalRequests())
		ratio := s / b
		return math.Abs(ratio-k) < 0.02*k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// Property: generated counts are never negative.
func TestNonNegativeCountsProperty(t *testing.T) {
	f := func(seed int64) bool {
		p := testProgram(seed)
		p.NoiseCV = 0.5 // aggressive noise
		tr := p.Generate()
		for _, w := range tr.Windows {
			for _, c := range w {
				if c < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
