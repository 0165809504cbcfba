package topo

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/app"
	"repro/internal/sim"
	"repro/internal/workload"
)

// builtins enumerates the bundled Go-coded applications with their default
// traffic mixes — the corpus the DSL must represent losslessly.
func builtins() map[string]struct {
	spec *app.Spec
	mix  workload.Mix
} {
	return map[string]struct {
		spec *app.Spec
		mix  workload.Mix
	}{
		"social": {app.SocialNetwork(), workload.SocialDefaultMix()},
		"hotel":  {app.HotelReservation(), workload.HotelDefaultMix()},
		"media":  {app.MediaMicroservices(), workload.Mix(app.MediaDefaultMix())},
	}
}

// simFingerprint drives a short but full simulation (diurnal traffic, default
// measurement noise) and returns the run's bit-exact fingerprint.
func simFingerprint(t *testing.T, spec *app.Spec, mix workload.Mix) string {
	t.Helper()
	prog := workload.Uniform(1, workload.DaySpec{Shape: workload.TwoPeak{}, Mix: mix, PeakRPS: 40})
	prog.WindowsPerDay = 48
	c, err := sim.NewCluster(spec, 7)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	run, err := c.Run(prog.Generate())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return sim.Fingerprint(run)
}

// TestBuiltinsRoundTripBitIdentical is the DSL completeness proof: every
// bundled application, exported to the DSL and parsed back, must drive the
// simulator to the exact fingerprint of the original spec — every float
// survives the JSON trip bit for bit.
func TestBuiltinsRoundTripBitIdentical(t *testing.T) {
	for name, b := range builtins() {
		t.Run(name, func(t *testing.T) {
			want := simFingerprint(t, b.spec, b.mix)

			doc := FromSpec(b.spec, b.mix)
			data := Encode(doc)
			back, err := Parse(data)
			if err != nil {
				t.Fatalf("Parse(Encode(%s)): %v", name, err)
			}
			got := simFingerprint(t, back.Spec(), back.Mix())
			if got != want {
				t.Fatalf("%s: fingerprint drifted through DSL round-trip: %s != %s", name, got, want)
			}
		})
	}
}

// TestExampleTopologiesMatchBuiltins: the checked-in DSL documents of the
// bundled applications are what exporting the Go-coded specs writes, byte
// for byte, so the two cannot drift apart.
func TestExampleTopologiesMatchBuiltins(t *testing.T) {
	for name, file := range map[string]string{
		"social": "social-network.json",
		"hotel":  "hotel-reservation.json",
		"media":  "media-microservices.json",
	} {
		b := builtins()[name]
		got, err := os.ReadFile(filepath.Join("..", "..", "examples", "topologies", file))
		if err != nil {
			t.Fatal(err)
		}
		if want := Encode(FromSpec(b.spec, b.mix)); !bytes.Equal(got, want) {
			t.Errorf("examples/topologies/%s differs from the %s app: regenerate it with `go run ./cmd/deeprest spec export -app %s -o examples/topologies/%s`", file, name, name, file)
		}
	}
}

// TestEncodeStable checks the canonical encoding is a fixed point:
// Encode(Parse(Encode(d))) == Encode(d).
func TestEncodeStable(t *testing.T) {
	for name, b := range builtins() {
		doc := FromSpec(b.spec, b.mix)
		data := Encode(doc)
		back, err := Parse(data)
		if err != nil {
			t.Fatalf("Parse(%s): %v", name, err)
		}
		if again := Encode(back); string(again) != string(data) {
			t.Fatalf("%s: encoding is not a fixed point", name)
		}
	}
}

// TestMixRoundTrip checks traffic weights survive the trip bit-exactly.
func TestMixRoundTrip(t *testing.T) {
	b := builtins()["social"]
	doc := FromSpec(b.spec, b.mix)
	back, err := Parse(Encode(doc))
	if err != nil {
		t.Fatal(err)
	}
	got := back.Mix()
	for api, w := range b.mix {
		if got[api] != w {
			t.Fatalf("mix[%s] = %v, want %v", api, got[api], w)
		}
	}
}
