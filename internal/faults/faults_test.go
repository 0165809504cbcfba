package faults

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestParseFullSpec(t *testing.T) {
	spec, err := Parse("seed=42; crash:comp=DB,from=10,to=15; throttle:comp=Svc,factor=0.5,from=3;" +
		"latency:comp=Svc,factor=2.5;dropspans:factor=0.2,from=1,to=9;" +
		"dupspans:factor=0.1;scrapegap:comp=DB,prob=0.25;clockskew:skew=2,from=30;" +
		"retrainfail:prob=0.5,from=2;ckptcorrupt:from=3,to=4")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 42 {
		t.Fatalf("seed = %d", spec.Seed)
	}
	if len(spec.Injectors) != 9 {
		t.Fatalf("injectors = %d", len(spec.Injectors))
	}
	want := Injector{Kind: Crash, Component: "DB", From: 10, To: 15}
	if spec.Injectors[0] != want {
		t.Fatalf("crash clause = %+v", spec.Injectors[0])
	}
	kinds := map[Kind]bool{}
	for _, in := range spec.Injectors {
		kinds[in.Kind] = true
	}
	if len(kinds) != 9 { // every clause of the spec is a distinct kind
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	bad := []string{
		"crash",                      // missing comp
		"crash:comp=DB,from=5,to=5",  // empty interval
		"throttle:comp=A,factor=0",   // factor out of (0,1]
		"throttle:comp=A,factor=1.5", // factor out of (0,1]
		"latency:comp=A,factor=0.5",  // factor < 1
		"dropspans:factor=1.5",       // fraction > 1
		"scrapegap:prob=2",           // prob > 1
		"scrapegap:prob=NaN",         // non-finite
		"clockskew",                  // skew < 1
		"wat:comp=A",                 // unknown kind
		"crash:comp=A,wat=1",         // unknown key
		"crash:comp=A,from=x",        // bad int
		"seed=abc",                   // bad seed
		"crash:comp=A,from=-1",       // negative bound
		"clockskew:skew=99999999999", // over maxBound
		"dropspans:factor",           // not key=value
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

func TestParseEmptyAndWhitespace(t *testing.T) {
	for _, s := range []string{"", " ", ";;", "seed=7"} {
		spec, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if len(spec.Injectors) != 0 {
			t.Fatalf("Parse(%q) produced injectors %v", s, spec.Injectors)
		}
	}
	// Compile maps an injector-free spec to a nil (inert) schedule.
	sched, err := Compile("seed=7")
	if err != nil || sched != nil {
		t.Fatalf("Compile(seed only) = %v, %v", sched, err)
	}
}

func TestStringRoundTrip(t *testing.T) {
	const text = "seed=-3;crash:comp=DB,from=1,to=4;scrapegap:prob=0.25;clockskew:from=2,skew=3"
	spec := MustParse(text)
	again := MustParse(spec.String())
	if !reflect.DeepEqual(spec, again) {
		t.Fatalf("round trip: %+v vs %+v", spec, again)
	}
	if spec.String() != again.String() {
		t.Fatalf("canonical form unstable: %q vs %q", spec.String(), again.String())
	}
}

// TestScheduleDeterminism is the determinism contract: two schedules
// compiled from the same seed + spec answer every query identically, and a
// different seed diverges.
func TestScheduleDeterminism(t *testing.T) {
	const text = "seed=11;scrapegap:prob=0.3;dropspans:factor=0.25;retrainfail:prob=0.5"
	a, err := Compile(text)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Compile(text)
	other, _ := Compile(strings.Replace(text, "seed=11", "seed=12", 1))
	diverged := false
	for w := 0; w < 200; w++ {
		if a.ScrapeGapped("X", w) != b.ScrapeGapped("X", w) ||
			a.DroppedSpans(w, 3, 17) != b.DroppedSpans(w, 3, 17) ||
			a.FailTraining(w) != b.FailTraining(w) {
			t.Fatalf("same seed diverged at window %d", w)
		}
		if a.ScrapeGapped("X", w) != other.ScrapeGapped("X", w) {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical scrape-gap schedules")
	}
}

func TestScheduleQueries(t *testing.T) {
	s := NewSchedule(MustParse(
		"crash:comp=DB,from=10,to=12;throttle:comp=Svc,factor=0.5,from=5,to=6;" +
			"latency:comp=Svc,factor=3,from=5,to=6;clockskew:skew=2,from=7,to=8;" +
			"dupspans:factor=1,from=4,to=5"))
	if s.Crashed("DB", 9) || !s.Crashed("DB", 10) || !s.Crashed("DB", 11) || s.Crashed("DB", 12) {
		t.Fatal("crash interval wrong")
	}
	if s.Crashed("Svc", 10) {
		t.Fatal("crash leaked to another component")
	}
	if got := s.CPUFactor("Svc", 5); got != 0.5 {
		t.Fatalf("CPUFactor = %v", got)
	}
	if got := s.CPUFactor("Svc", 6); got != 1 {
		t.Fatalf("CPUFactor outside interval = %v", got)
	}
	if got := s.LatencyFactor("Svc", 5); got != 3 {
		t.Fatalf("LatencyFactor = %v", got)
	}
	if got := s.Skew(7); got != 2 {
		t.Fatalf("Skew = %d", got)
	}
	if got := s.Skew(8); got != 0 {
		t.Fatalf("Skew outside interval = %d", got)
	}
	// factor=1 duplicates every request, and never more than count.
	if got := s.DuplicatedSpans(4, 0, 7); got != 7 {
		t.Fatalf("DuplicatedSpans = %d", got)
	}
	if got := s.DuplicatedSpans(5, 0, 7); got != 0 {
		t.Fatalf("DuplicatedSpans outside interval = %d", got)
	}
}

// TestCollectorLossTracksExpectation: over many batches the deterministic
// remainder-rounding must track count·factor in aggregate.
func TestCollectorLossTracksExpectation(t *testing.T) {
	s := NewSchedule(MustParse("seed=5;dropspans:factor=0.3"))
	total, dropped := 0, 0
	for w := 0; w < 500; w++ {
		total += 10
		dropped += s.DroppedSpans(w, 0, 10)
	}
	got := float64(dropped) / float64(total)
	if math.Abs(got-0.3) > 0.03 {
		t.Fatalf("aggregate drop fraction = %v, want ≈0.3", got)
	}
}

func TestNilScheduleIsInert(t *testing.T) {
	var s *Schedule
	if s.Crashed("X", 0) || s.ScrapeGapped("X", 0) || s.FailTraining(1) ||
		s.CorruptCheckpoint(1) || s.TouchesSim() {
		t.Fatal("nil schedule fired")
	}
	if s.CPUFactor("X", 0) != 1 || s.LatencyFactor("X", 0) != 1 ||
		s.Skew(0) != 0 || s.DroppedSpans(0, 0, 5) != 0 {
		t.Fatal("nil schedule perturbed")
	}
}

func TestControlPlaneQueries(t *testing.T) {
	s := NewSchedule(MustParse("retrainfail:from=2,to=4;ckptcorrupt:from=3,to=4"))
	if s.FailTraining(1) || !s.FailTraining(2) || !s.FailTraining(3) || s.FailTraining(4) {
		t.Fatal("retrainfail interval wrong")
	}
	if s.CorruptCheckpoint(2) || !s.CorruptCheckpoint(3) || s.CorruptCheckpoint(4) {
		t.Fatal("ckptcorrupt interval wrong")
	}
	if s.TouchesSim() {
		t.Fatal("control-plane spec reported as sim-facing")
	}
	if !NewSchedule(MustParse("scrapegap:prob=0.1")).TouchesSim() {
		t.Fatal("sim spec not reported as sim-facing")
	}
}
