// Package workload generates API traffic programs: multivariate time-series
// of requests-per-window for every exposed API endpoint.
//
// It stands in for the paper's Locust-based generator (§5.1): traffic
// follows real-world-like shapes (two peak hours per day by default, e.g.
// lunchtime and late evening), an API composition mix, a user-scale knob,
// and day-to-day variation to mimic the non-deterministic properties of
// production traffic. The three query scenarios the paper evaluates —
// unseen user scales, unseen API compositions, unseen traffic shapes — are
// all expressed by varying these knobs.
package workload

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
)

// Shape maps the position of a window within a day to a relative traffic
// intensity in (0, 1].
type Shape interface {
	// Intensity returns the relative traffic level for window w of a day
	// with total windowsPerDay windows. Implementations must return a
	// value in (0, 1] with a maximum of 1 somewhere in the day.
	Intensity(w, windowsPerDay int) float64
	// Name identifies the shape in experiment output.
	Name() string
}

// TwoPeak is the default diurnal shape: a low overnight base with two peak
// hours (lunchtime and late evening), matching the paper's Figure 9.
type TwoPeak struct {
	// Base is the overnight fraction of peak traffic (default 0.12).
	Base float64
	// Peak1Frac and Peak2Frac position the peaks as fractions of the day
	// (defaults 0.54 ≈ 13:00 and 0.88 ≈ 21:00).
	Peak1Frac, Peak2Frac float64
	// Width is the Gaussian width of each peak as a fraction of the day
	// (default 0.055 ≈ 80 minutes).
	Width float64
}

// Name implements Shape.
func (TwoPeak) Name() string { return "2-peak/day" }

// Intensity implements Shape.
func (s TwoPeak) Intensity(w, windowsPerDay int) float64 {
	base := s.Base
	if base == 0 {
		base = 0.12
	}
	p1, p2 := s.Peak1Frac, s.Peak2Frac
	if p1 == 0 {
		p1 = 0.54
	}
	if p2 == 0 {
		p2 = 0.88
	}
	width := s.Width
	if width == 0 {
		width = 0.055
	}
	x := float64(w%windowsPerDay) / float64(windowsPerDay)
	g := func(mu float64) float64 {
		d := x - mu
		return math.Exp(-d * d / (2 * width * width))
	}
	v := base + (1-base)*math.Max(g(p1), 0.85*g(p2))
	if v > 1 {
		v = 1
	}
	return v
}

// Flat is a constant-intensity shape, modelling a customer base spread over
// many time zones (the paper's "unseen traffic shape" scenario).
type Flat struct {
	// Level is the constant intensity (default 0.55, so that a flat day
	// carries roughly the same request volume as a two-peak day at the
	// same peak RPS).
	Level float64
}

// Name implements Shape.
func (Flat) Name() string { return "flat" }

// Intensity implements Shape.
func (s Flat) Intensity(_, _ int) float64 {
	if s.Level == 0 {
		return 0.55
	}
	return s.Level
}

// OnePeak has a single daily peak; used by the sanity-check experiments to
// produce benign-but-novel days (e.g. the paper's 07/16).
type OnePeak struct {
	// Base, PeakFrac, Width as in TwoPeak (defaults 0.12, 0.54, 0.07).
	Base, PeakFrac, Width float64
}

// Name implements Shape.
func (OnePeak) Name() string { return "1-peak/day" }

// Intensity implements Shape.
func (s OnePeak) Intensity(w, windowsPerDay int) float64 {
	base := s.Base
	if base == 0 {
		base = 0.12
	}
	p := s.PeakFrac
	if p == 0 {
		p = 0.54
	}
	width := s.Width
	if width == 0 {
		width = 0.07
	}
	x := float64(w%windowsPerDay) / float64(windowsPerDay)
	d := x - p
	v := base + (1-base)*math.Exp(-d*d/(2*width*width))
	if v > 1 {
		v = 1
	}
	return v
}

// High is a constantly-high shape (the paper's benign 07/14 in Figure 19).
type High struct {
	// Level is the constant intensity (default 0.9).
	Level float64
}

// Name implements Shape.
func (High) Name() string { return "high" }

// Intensity implements Shape.
func (s High) Intensity(_, _ int) float64 {
	if s.Level == 0 {
		return 0.9
	}
	return s.Level
}

// ParseShape resolves a shape's command-line name, with default knobs.
func ParseShape(name string) (Shape, error) {
	switch name {
	case "2peak":
		return TwoPeak{}, nil
	case "flat":
		return Flat{}, nil
	case "1peak":
		return OnePeak{}, nil
	case "high":
		return High{}, nil
	}
	return nil, fmt.Errorf("unknown shape %q (want 2peak, flat, 1peak or high)", name)
}

// Mix is the API composition: relative weights per endpoint. Weights need
// not sum to 1; they are normalised at generation time.
type Mix map[string]float64

// Normalize returns a copy of the mix scaled to sum to 1.
func (m Mix) Normalize() Mix {
	sum := 0.0
	for _, w := range m {
		sum += w
	}
	out := make(Mix, len(m))
	if sum <= 0 {
		return out
	}
	for k, w := range m {
		out[k] = w / sum
	}
	return out
}

// DaySpec describes one day of a traffic program. Programs are composed of
// days so that experiments can mix shapes and compositions (e.g. the
// sanity-check timeline where day 7 has a flat shape).
type DaySpec struct {
	// Shape of the day's traffic.
	Shape Shape
	// Mix is the day's API composition.
	Mix Mix
	// PeakRPS is the total requests per second across all APIs at the
	// day's intensity maximum.
	PeakRPS float64
}

// Program is a multi-day traffic program.
type Program struct {
	// Days lists the per-day specifications in order.
	Days []DaySpec
	// WindowsPerDay is the number of scrape windows per day (default 288,
	// i.e. 5-minute windows).
	WindowsPerDay int
	// WindowSeconds is the length of one window in seconds (default 300).
	WindowSeconds float64
	// DayJitter is the day-to-day multiplicative volume variation
	// (coefficient, e.g. 0.05 for ±5%).
	DayJitter float64
	// MixJitter is the day-to-day variation of each API's share of the
	// mix (coefficient, e.g. 0.15 for ±15%). Real user populations shift
	// their behaviour between days; this variation is also what lets an
	// API-aware estimator tell apart the resource footprints of APIs
	// that would otherwise be perfectly correlated.
	MixJitter float64
	// PhaseSpread shifts each API's diurnal curve by a stable per-API
	// fraction of the day in [-PhaseSpread, PhaseSpread] (e.g. 0.06 ≈
	// ±90 minutes). Real endpoints peak at different times — media
	// uploads in the evening, feed reads at lunch — and this
	// decorrelation is essential for any estimator to identify per-API
	// resource footprints from production traffic.
	PhaseSpread float64
	// NoiseCV is the per-window multiplicative noise coefficient.
	NoiseCV float64
	// Seed drives all randomness; identical programs generate identical
	// traffic.
	Seed int64
}

// Uniform returns a program with the same day specification repeated for
// the given number of days, with conventional defaults for the remaining
// knobs.
func Uniform(days int, spec DaySpec) Program {
	return Program{
		Days:          repeatDays(days, spec),
		WindowsPerDay: 288,
		WindowSeconds: 300,
		DayJitter:     0.05,
		MixJitter:     0.15,
		PhaseSpread:   0.05,
		NoiseCV:       0.06,
		Seed:          1,
	}
}

// Scale returns the window geometry, learning-period length and peak load
// of the two scales every simulated deployment runs at: full (96 five-minute
// windows a day, the paper's seven learning days, 60 req/s at peak) or quick
// (48 one-minute windows, three days, 30 req/s — tests, -quick runs and
// daemon bootstraps).
func Scale(quick bool) (windowsPerDay int, windowSeconds float64, learnDays int, peakRPS float64) {
	if quick {
		return 48, 60, 3, 30
	}
	return 96, 300, 7, 60
}

func repeatDays(n int, spec DaySpec) []DaySpec {
	out := make([]DaySpec, n)
	for i := range out {
		out[i] = spec
	}
	return out
}

// Traffic is generated API traffic: per window, the number of requests
// received per API endpoint. It is the multivariate RPS time-series of the
// paper's Figure 2a, materialised as counts per window.
type Traffic struct {
	// Windows holds, per window, request counts keyed by API name.
	Windows []map[string]int
	// WindowSeconds is the duration of each window.
	WindowSeconds float64
	// WindowsPerDay is the day length in windows.
	WindowsPerDay int
	// APIs is the sorted list of endpoints with any traffic.
	APIs []string
}

// Generate materialises the program into traffic.
func (p Program) Generate() *Traffic {
	wpd := p.WindowsPerDay
	if wpd == 0 {
		wpd = 288
	}
	ws := p.WindowSeconds
	if ws == 0 {
		ws = 300
	}
	rng := rand.New(rand.NewSource(p.Seed))
	tr := &Traffic{
		WindowSeconds: ws,
		WindowsPerDay: wpd,
	}
	apiSet := make(map[string]bool)
	for _, day := range p.Days {
		mix := day.Mix.Normalize()
		// Iterate APIs in sorted order: the generator draws noise per
		// API, so map-iteration order would make traffic
		// non-reproducible.
		apis := make([]string, 0, len(mix))
		for api := range mix {
			apis = append(apis, api)
		}
		sort.Strings(apis)
		if p.MixJitter > 0 {
			jittered := make(Mix, len(mix))
			for _, api := range apis {
				f := 1 + p.MixJitter*rng.NormFloat64()
				if f < 0.1 {
					f = 0.1
				}
				jittered[api] = mix[api] * f
			}
			mix = jittered.Normalize()
		}
		dayFactor := 1 + p.DayJitter*rng.NormFloat64()
		if dayFactor < 0.5 {
			dayFactor = 0.5
		}
		offsets := make(map[string]int, len(apis))
		for _, api := range apis {
			offsets[api] = phaseOffset(api, p.PhaseSpread, wpd)
		}
		for w := 0; w < wpd; w++ {
			counts := make(map[string]int, len(mix))
			for _, api := range apis {
				frac := mix[api]
				if frac <= 0 {
					continue
				}
				shifted := ((w-offsets[api])%wpd + wpd) % wpd
				intensity := day.Shape.Intensity(shifted, wpd)
				noise := 1 + p.NoiseCV*rng.NormFloat64()
				if noise < 0 {
					noise = 0
				}
				n := int(math.Round(day.PeakRPS * dayFactor * intensity * frac * ws * noise))
				if n < 0 {
					n = 0
				}
				counts[api] = n
				if n > 0 {
					apiSet[api] = true
				}
			}
			tr.Windows = append(tr.Windows, counts)
		}
	}
	tr.APIs = sortedKeys(apiSet)
	return tr
}

// phaseOffset derives a stable per-API shift of the diurnal curve, in
// windows, in [-spread, spread] fractions of the day.
func phaseOffset(api string, spread float64, wpd int) int {
	if spread <= 0 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(api))
	// Map the hash to [-1, 1).
	u := float64(h.Sum64()%100000)/50000 - 1
	return int(u * spread * float64(wpd))
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// NumWindows returns the total number of windows.
func (t *Traffic) NumWindows() int { return len(t.Windows) }

// TotalRequests returns the total request count over all windows and APIs.
func (t *Traffic) TotalRequests() int {
	n := 0
	for _, w := range t.Windows {
		for _, c := range w {
			n += c
		}
	}
	return n
}

// WindowTotal returns the total request count of window w.
func (t *Traffic) WindowTotal(w int) int {
	n := 0
	for _, c := range t.Windows[w] {
		n += c
	}
	return n
}

// Series returns the per-window request counts of one API.
func (t *Traffic) Series(api string) []float64 {
	out := make([]float64, len(t.Windows))
	for w, m := range t.Windows {
		out[w] = float64(m[api])
	}
	return out
}

// TotalSeries returns the per-window total request counts.
func (t *Traffic) TotalSeries() []float64 {
	out := make([]float64, len(t.Windows))
	for w := range t.Windows {
		out[w] = float64(t.WindowTotal(w))
	}
	return out
}

// Slice returns the traffic restricted to windows [from, to).
func (t *Traffic) Slice(from, to int) *Traffic {
	cp := &Traffic{
		Windows:       t.Windows[from:to],
		WindowSeconds: t.WindowSeconds,
		WindowsPerDay: t.WindowsPerDay,
		APIs:          t.APIs,
	}
	return cp
}

// Append concatenates other onto t and returns a new Traffic. Both inputs
// must share window geometry.
func (t *Traffic) Append(other *Traffic) (*Traffic, error) {
	if t.WindowSeconds != other.WindowSeconds || t.WindowsPerDay != other.WindowsPerDay {
		return nil, fmt.Errorf("workload: mismatched window geometry (%vs/%d vs %vs/%d)",
			t.WindowSeconds, t.WindowsPerDay, other.WindowSeconds, other.WindowsPerDay)
	}
	apiSet := make(map[string]bool)
	for _, a := range t.APIs {
		apiSet[a] = true
	}
	for _, a := range other.APIs {
		apiSet[a] = true
	}
	return &Traffic{
		Windows:       append(append([]map[string]int{}, t.Windows...), other.Windows...),
		WindowSeconds: t.WindowSeconds,
		WindowsPerDay: t.WindowsPerDay,
		APIs:          sortedKeys(apiSet),
	}, nil
}
