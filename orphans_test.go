package deeprest_test

import (
	"errors"
	"os/exec"
	"strings"
	"testing"
)

// orphanAllowed lists the internal packages nothing shipped may import, each
// with the reason it is kept anyway.
var orphanAllowed = map[string]string{
	"repro/internal/testutil": "test helper: fixtures shared by the packages' tests",
	"repro/internal/des":      "oracle: TestAgreesWithAnalyticModel is the only check sim.LatencyModel has",
}

// TestNoOrphanPackages: every repro/internal/... package is reachable from a
// binary, an example, the public deeprest package or the bench/ module.
// A package only its own tests import is code a reader must still rule out;
// it is deleted, or allowed above with a reason.
func TestNoOrphanPackages(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go is not on PATH")
	}
	reachable := map[string]bool{}
	for _, args := range [][]string{
		{"list", "-deps", "./cmd/...", "./examples/...", "."},
		{"list", "-C", "bench", "-deps", "."},
	} {
		for _, pkg := range goList(t, args...) {
			reachable[pkg] = true
		}
	}
	present := map[string]bool{}
	for _, pkg := range goList(t, "list", "./internal/...") {
		present[pkg] = true
		switch _, allowed := orphanAllowed[pkg]; {
		case reachable[pkg] && allowed:
			t.Errorf("%s is reachable now: drop it from orphanAllowed", pkg)
		case !reachable[pkg] && !allowed:
			t.Errorf("%s is imported by no binary, example, public API or bench/: delete it, or add it to orphanAllowed with a reason", pkg)
		}
	}
	for pkg := range orphanAllowed {
		if !present[pkg] {
			t.Errorf("orphanAllowed names %s, which no longer exists", pkg)
		}
	}
}

func goList(t *testing.T, args ...string) []string {
	t.Helper()
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			t.Fatalf("go %s: %v: %s", strings.Join(args, " "), err, ee.Stderr)
		}
		t.Fatalf("go %s: %v", strings.Join(args, " "), err)
	}
	return strings.Fields(string(out))
}
