package topo

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/app"
	"repro/internal/sim"
	"repro/internal/workload"
)

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

// TestBundledFingerprints pins each bundled application, spec and default
// mix, to the simulation fingerprint it had when it was still written in Go:
// the documents state the same applications, bit for bit.
func TestBundledFingerprints(t *testing.T) {
	for name, want := range map[string]string{
		"social": "01890fb9e87d1dfe",
		"hotel":  "b2a7a05b836d44e4",
		"media":  "ada4857186b8d006",
	} {
		spec, mix, err := Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := simFingerprint(t, spec, mix); got != want {
			t.Errorf("%s: fingerprint %s, want %s", name, got, want)
		}
	}
}

// TestBuiltinsRoundTripBitIdentical: every embedded document is in canonical
// form, Encode(Parse(b)) == b, and so is its export through the spec and mix
// that Resolve returns, which is what `deeprest spec export` prints.
func TestBuiltinsRoundTripBitIdentical(t *testing.T) {
	files, err := fs.Glob(apps, "apps/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(bundled) {
		t.Fatalf("%d embedded documents, %d bundled names", len(files), len(bundled))
	}
	for name, file := range bundled {
		t.Run(name, func(t *testing.T) {
			data, err := apps.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			doc, err := Parse(data)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(Encode(doc), data) {
				t.Errorf("%s is not in canonical form", file)
			}
			spec, mix, err := Resolve(name)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(Encode(FromSpec(spec, mix)), data) {
				t.Errorf("exporting %s does not reproduce %s", name, file)
			}
		})
	}
}

// TestBundledApps pins the facts about the bundled applications that the
// paper's figures rely on (§5.1: 29 components and 76 estimation targets
// for the social network), over what Resolve returns. Each row also names
// one API that writes a store, one that visits a store and never writes it,
// and one component an API never visits (Figure 8: /readTimeline never
// reaches ComposePostService).
func TestBundledApps(t *testing.T) {
	type visit struct{ api, component string }
	for _, tc := range []struct {
		app                             string
		components, stateful, apis      int
		pairs                           int
		writes, readsOnly, neverVisited visit
	}{
		{"social", 29, 6, 11, 76,
			visit{"/composePost", "PostStorageMongoDB"},
			visit{"/readTimeline", "PostStorageMongoDB"},
			visit{"/readTimeline", "ComposePostService"}},
		{"hotel", 18, 6, 4, 54,
			visit{"/reserve", "ReserveMongoDB"},
			visit{"/reserve", "UserMongoDB"},
			visit{"/search", "ReserveMongoDB"}},
		{"media", 19, 5, 6, 53,
			visit{"/composeReview", "ReviewMongoDB"},
			visit{"/readMoviePage", "ReviewMongoDB"},
			visit{"/readMoviePage", "ComposeReviewService"}},
	} {
		t.Run(tc.app, func(t *testing.T) {
			spec, mix, err := Resolve(tc.app)
			if err != nil {
				t.Fatal(err)
			}
			stateful := 0
			for _, c := range spec.Components {
				if c.Stateful {
					stateful++
				}
			}
			if len(spec.Components) != tc.components || stateful != tc.stateful {
				t.Errorf("%d components (%d stateful), want %d (%d)", len(spec.Components), stateful, tc.components, tc.stateful)
			}
			if len(spec.APIs) != tc.apis {
				t.Errorf("%d APIs, want %d", len(spec.APIs), tc.apis)
			}
			if got := len(spec.ResourcePairs()); got != tc.pairs {
				t.Errorf("%d resource pairs, want %d", got, tc.pairs)
			}
			if len(mix) != len(spec.APIs) {
				t.Errorf("default mix has %d APIs, want %d", len(mix), len(spec.APIs))
			}
			for _, a := range spec.APIs {
				if mix[a.Name] <= 0 {
					t.Errorf("default mix gives %s no traffic", a.Name)
				}
			}
			nodes := func(v visit) (out []*app.PathNode) {
				a, ok := spec.API(v.api)
				if !ok {
					t.Fatalf("no API %s", v.api)
				}
				var walk func(n *app.PathNode)
				walk = func(n *app.PathNode) {
					if n.Component == v.component {
						out = append(out, n)
					}
					for _, c := range n.Children {
						walk(c)
					}
				}
				for _, tpl := range a.Templates {
					walk(tpl.Root)
				}
				return out
			}
			writes := func(n *app.PathNode) bool {
				return n.Cost.WriteOps > 0 || n.Cost.WriteKiB > 0 || n.Cost.DiskMiB > 0
			}
			if !slices.ContainsFunc(nodes(tc.writes), writes) {
				t.Errorf("%s never writes %s", tc.writes.api, tc.writes.component)
			}
			if n := nodes(tc.readsOnly); len(n) == 0 || slices.ContainsFunc(n, writes) {
				t.Errorf("%s must visit %s and never write it", tc.readsOnly.api, tc.readsOnly.component)
			}
			if len(nodes(tc.neverVisited)) > 0 {
				t.Errorf("%s visits %s", tc.neverVisited.api, tc.neverVisited.component)
			}
		})
	}
}

// TestGeneratedExampleMatchesGenerator: the checked-in generated example is
// what `deeprest spec generate -seed 7 -components 60` writes, byte for byte.
func TestGeneratedExampleMatchesGenerator(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "..", "examples", "topologies", "generated-60.json"))
	if err != nil {
		t.Fatal(err)
	}
	if want := Encode(Generate(Config{Seed: 7, Components: 60})); !bytes.Equal(got, want) {
		t.Error("examples/topologies/generated-60.json differs from the generator: regenerate it with `go run ./cmd/deeprest spec generate -seed 7 -components 60 -o examples/topologies/generated-60.json`")
	}
}

// TestEncodeStable checks the canonical encoding is a fixed point for a
// document built in Go rather than parsed: Encode(Parse(Encode(d))) ==
// Encode(d).
func TestEncodeStable(t *testing.T) {
	data := Encode(FromSpec(app.Toy(), workload.Mix{"/read": 0.7, "/write": 0.3}))
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if again := Encode(back); !bytes.Equal(again, data) {
		t.Fatalf("encoding is not a fixed point:\n%s\n%s", data, again)
	}
}

// TestMixRoundTrip checks traffic weights survive the trip bit-exactly,
// including ones with no short decimal form.
func TestMixRoundTrip(t *testing.T) {
	mix := workload.Mix{"/read": 1.0 / 3, "/write": 0.1 + 0.2}
	back, err := Parse(Encode(FromSpec(app.Toy(), mix)))
	if err != nil {
		t.Fatal(err)
	}
	got := back.Mix()
	for api, w := range mix {
		if got[api] != w {
			t.Fatalf("mix[%s] = %v, want %v", api, got[api], w)
		}
	}
}
