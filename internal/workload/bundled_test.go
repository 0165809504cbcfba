package workload_test

import (
	"testing"

	"repro/internal/topo"
)

// TestDefaultMixesCoverAPIs: each bundled application's default mix gives
// traffic to every one of its APIs.
func TestDefaultMixesCoverAPIs(t *testing.T) {
	for name, want := range map[string]int{"social": 11, "hotel": 4, "media": 6} {
		s, mix, err := topo.Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(mix); got != want || len(s.APIs) != want {
			t.Errorf("%s mix has %d APIs over %d, want %d", name, got, len(s.APIs), want)
		}
	}
}
