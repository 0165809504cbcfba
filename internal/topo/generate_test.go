package topo

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestGenerateDeterministic: the same seed must produce byte-identical
// documents; different seeds must not.
func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, Components: 60}
	a := Encode(Generate(cfg))
	b := Encode(Generate(cfg))
	if string(a) != string(b) {
		t.Fatal("same seed produced different documents")
	}
	c := Encode(Generate(Config{Seed: 8, Components: 60}))
	if string(a) == string(c) {
		t.Fatal("different seeds produced identical documents")
	}
}

// TestGenerateValidatesAcrossSizes: every generated topology must pass full
// validation (and therefore deploy), from the minimum clamp up to
// production scale, across several seeds.
func TestGenerateValidatesAcrossSizes(t *testing.T) {
	for _, n := range []int{1, 5, 12, 30, 100, 200, 300} {
		for seed := int64(0); seed < 3; seed++ {
			doc := Generate(Config{Seed: seed, Components: n})
			if err := doc.Validate(); err != nil {
				t.Fatalf("seed=%d components=%d: %v", seed, n, err)
			}
			want := n
			if want < 5 {
				want = 5
			}
			if got := len(doc.Components); got != want {
				t.Fatalf("seed=%d components=%d: got %d components", seed, n, got)
			}
		}
	}
}

// TestGenerateRoundTrips: generated documents live in the same DSL as
// everything else — Encode → Parse must reproduce them.
func TestGenerateRoundTrips(t *testing.T) {
	doc := Generate(Config{Seed: 3, Components: 80})
	data := Encode(doc)
	back, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse(Encode(gen)): %v", err)
	}
	if again := Encode(back); string(again) != string(data) {
		t.Fatal("generated document is not an encoding fixed point")
	}
}

// TestGenerateSimulates: a generated topology must run end-to-end through
// the simulator.
func TestGenerateSimulates(t *testing.T) {
	doc := Generate(Config{Seed: 7, Components: 40})
	prog := workload.Uniform(1, workload.DaySpec{Shape: workload.TwoPeak{}, Mix: doc.Mix(), PeakRPS: 60})
	prog.WindowsPerDay = 24
	c, err := sim.NewCluster(doc.Spec(), 1)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	run, err := c.Run(prog.Generate())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	requests := 0
	for _, w := range run.Windows {
		requests += trace.TotalRequests(w)
	}
	if requests == 0 {
		t.Fatal("generated topology produced no traffic")
	}
}

// TestGenerateShape sanity-checks the tiered layout: stateful stores exist,
// caches exist, and every API has at least two templates.
func TestGenerateShape(t *testing.T) {
	doc := Generate(Config{Seed: 11, Components: 100, APIs: 12})
	var stores, caches, gateways int
	for _, c := range doc.Components {
		if c.Stateful {
			stores++
		}
		if strings.Contains(c.Name, "Cache") {
			caches++
		}
		if strings.HasPrefix(c.Name, "Gateway") {
			gateways++
		}
	}
	if stores < 2 || caches < 1 || gateways < 1 {
		t.Fatalf("layout missing tiers: stores=%d caches=%d gateways=%d", stores, caches, gateways)
	}
	if len(doc.APIs) != 12 {
		t.Fatalf("got %d APIs, want 12", len(doc.APIs))
	}
	for _, a := range doc.APIs {
		if len(a.Templates) < 2 {
			t.Fatalf("API %s has %d templates, want >=2", a.Name, len(a.Templates))
		}
		if a.Weight <= 0 {
			t.Fatalf("API %s has non-positive weight %v", a.Name, a.Weight)
		}
	}
}

// TestParseGenArg covers the -app gen:... flag syntax.
func TestParseGenArg(t *testing.T) {
	cfg, err := ParseGenArg("seed=7,components=200,apis=20,depth=5,fanout=4")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Seed: 7, Components: 200, APIs: 20, MaxDepth: 5, MaxFanout: 4}
	if cfg != want {
		t.Fatalf("got %+v, want %+v", cfg, want)
	}
	for _, bad := range []string{"", "components", "components=x", "seed=1", "bogus=3,components=5", "components=-2",
		"components=1001", "components=5,apis=1001", "components=9223372036854775807"} {
		if _, err := ParseGenArg(bad); err == nil {
			t.Fatalf("ParseGenArg(%q) accepted", bad)
		}
	}
	// The bound admits its own value and the largest topology the repo runs.
	for _, ok := range []string{"seed=7,components=300", "components=1000,apis=1000"} {
		if _, err := ParseGenArg(ok); err != nil {
			t.Fatalf("ParseGenArg(%q): %v", ok, err)
		}
	}
}
